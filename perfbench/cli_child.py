"""``hardydual run`` with layer spans recorded, for the traced readme_cli run.

    python3 perfbench/cli_child.py SPANS.json run CONFIG --out DIR [...]

Runs ``hardydual.cli.main`` on the remaining arguments with the tracer
installed, then writes the spans and counts to SPANS.json and exits with the
CLI's exit code.  ``src`` must be on PYTHONPATH.
"""

import sys

import hardydual.cli

from tracer import Tracer


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return hardydual.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
