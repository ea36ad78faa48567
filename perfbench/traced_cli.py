"""Run one ``gammachain`` CLI command with spans installed.

Usage: python traced_cli.py STATS_JSON <gammachain arguments...>

Installs the wrappers from ``spans.cli_targets`` in this process, runs
``gammachain.cli.main`` on the remaining arguments, writes the span totals
to STATS_JSON, and exits with the command's status. The traced benchmark
run starts CLI commands through this file instead of ``-m gammachain.cli``.
"""

import json
import sys

from spans import Tracer, cli_targets


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    from gammachain import cli

    tracer = Tracer()
    with tracer.installed(cli_targets()):
        status = cli.main(argv)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.stats, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
