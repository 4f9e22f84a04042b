"""What the CLI needs of the MMI engine before it runs it, without numpy.

``atckit.mmi`` imports numpy, which costs a process about 0.1 s at start.
The CLI maps these errors to exit code 1 and offers this default for
every subcommand, so they live here, outside the ``atckit.mmi`` package
(importing any of its submodules runs its ``__init__``). The engine
re-exports each name from the module that raises or uses it.
"""

DEFAULT_TASK_WEIGHT = 0.5  # a task's alpha unless the caller gives one


class OovWord(KeyError):
    """Raised when a transcript word is missing from the phone lexicon."""


class NoPath(ArithmeticError):
    """Raised when a graph accepts no path of the requested length."""


class DivergenceDetected(RuntimeError):
    """Raised when the objective keeps falling or stops being finite."""
