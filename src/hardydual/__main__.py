import gc
import sys

from .cli import main


def run() -> int:
    """Entry of ``python -m hardydual`` and the ``hardydual`` script.

    Freezing the objects alive after import keeps the collector, and the
    final collection at interpreter exit, from walking them again: the
    tens of thousands of objects numpy and the package create at import.
    ``cli.main`` itself does not freeze, since tests call it in-process.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
