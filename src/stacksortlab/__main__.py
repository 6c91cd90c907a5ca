"""`python -m stacksortlab` runs the `stacksort` command."""

from .cli import main

if __name__ == "__main__":
    main()
