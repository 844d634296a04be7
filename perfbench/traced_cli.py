"""Run one ``mvbessel`` command with span tracing on.

Usage: python traced_cli.py SPANS_FILE JOB_ID CLI_ARG...

Standard output and the exit code are those of ``python -m mvbessel.cli
CLI_ARG...``; the spans are written to SPANS_FILE when the command ends.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_file, job_id, *argv = sys.argv[1:]
    import mvbessel.cli

    tracer = Tracer(job_id)
    tracer.install()
    try:
        return mvbessel.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
