"""What the package and each `stacksort` command import.

Every command starts a fresh interpreter, so each module it loads is paid
on every run.  The checks run each command in a child interpreter, since
pytest itself has already imported `dataclasses` and `json`.  The file
also runs without pytest: `python tests/test_imports.py`.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

# the child prints the exit status and every loaded module, after the
# command's own output has gone to a buffer
_CHILD = """\
import io, sys
from stacksortlab import cli
stdout, sys.stdout = sys.stdout, io.StringIO()
status = cli.run(sys.argv[1:])
sys.stdout = stdout
print(status, *sorted(sys.modules))
"""

# (argv, modules it must not load, modules it must load)
_COMMANDS = (
    (["sort", "3", "1", "2"],
     ("stacksortlab.lab", "stacksortlab.constructions",
      "stacksortlab.patterns", "dataclasses", "json", "csv"), ()),
    (["zeta", "--l", "3", "--m", "5"], ("stacksortlab.lab",), ()),
    # the lab never loads patterns, and loads constructions only for zetas
    (["count-image", "--n", "5", "--t", "1"],
     ("stacksortlab.constructions", "stacksortlab.patterns"),
     ("stacksortlab.lab",)),
    (["verify", "catalan", "--n", "5"],
     ("stacksortlab.constructions", "stacksortlab.patterns"),
     ("stacksortlab.lab",)),
    (["verify", "theorem1", "--m", "3", "--n", "5"],
     ("stacksortlab.constructions", "stacksortlab.patterns"),
     ("stacksortlab.lab",)),
)

# the names the package exported when it imported every module eagerly
_EXPORTED = {
    "constructions": ("canonical_preimage", "iterated_lift", "xi", "zeta"),
    "errors": ("EmptyPermutationError", "InvalidPermutationError",
               "ParseError", "PreconditionError", "ResourceBoundError",
               "StackSortError"),
    "lab": ("ImageReport", "VerificationReport", "bell", "bell_numbers",
            "catalan", "characterize_membership_rule", "count_avoiders",
            "count_t_stack_sortable", "explore_open", "image_of_iterate",
            "load_bell_fixture", "verify_all", "verify_catalan",
            "verify_prop2", "verify_theorem1", "verify_theorem2",
            "verify_thm3_count", "verify_west_zeilberger",
            "west_zeilberger_count"),
    "patterns": ("BarredOccurrence", "SetPartition", "avoids_barred_3241",
                 "barred_occurrence_involving_min", "callan_inverse",
                 "callan_partition", "check_partition", "contains_231",
                 "descent_tops_are_lr_maxima", "exists_231_with_endpoints",
                 "find_barred_3241", "format_partition", "parse_partition"),
    "perm": ("Perm", "check_permutation", "del_min", "descent_tops",
             "descents", "format_permutation", "identity", "is_increasing",
             "is_standard", "lr_maxima", "parse_permutation", "standardize",
             "tail_length"),
    "stacksort": ("StackTrace", "format_trace", "is_t_stack_sortable",
                  "stack_sort", "stack_sort_iterate", "stack_sort_recursive",
                  "trace_stack_sort"),
}


def _loaded_after(argv: list[str]) -> tuple[int, set[str]]:
    """Exit status and loaded modules after `cli.run(argv)` in a fresh
    interpreter."""
    path = os.pathsep.join(filter(None, [str(_SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stderr) == (0, ""), (argv, proc.stderr)
    status, *modules = proc.stdout.split()
    return int(status), set(modules)


def test_each_command_loads_only_what_it_uses():
    for argv, absent, present in _COMMANDS:
        status, loaded = _loaded_after(argv)
        assert status == 0, argv
        assert not loaded & set(absent), (argv, sorted(loaded & set(absent)))
        assert set(present) <= loaded, (argv, sorted(set(present) - loaded))


def test_package_names_resolve_lazily():
    import stacksortlab
    names = [name for group in _EXPORTED.values() for name in group]
    assert len(names) == 62
    assert sorted(stacksortlab.__all__) == sorted(names)
    for module_name, group in _EXPORTED.items():
        module = importlib.import_module(f"stacksortlab.{module_name}")
        assert getattr(stacksortlab, module_name) is module
        for name in group:
            assert getattr(stacksortlab, name) is getattr(module, name), name
    star: dict = {}
    exec("from stacksortlab import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    assert set(names) <= set(dir(stacksortlab))
    assert not hasattr(stacksortlab, "no_such_name")


if __name__ == "__main__":
    test_each_command_loads_only_what_it_uses()
    print("each command loads only the modules it uses")
