"""Run the twinbuild command line with host-speed probes in its process.

    python3 perfbench/cli_child.py PROBES_FILE ARG...

runs ``twinbuild.cli`` on ARG... as ``python -m twinbuild.cli ARG...`` does,
while probing the host's speed every ``PERIOD_S`` seconds (see
``hostspeed``).  When the command ends it writes to PROBES_FILE the probes'
total time on the first line and their speeds on the second.  Its exit code
is the command's.
"""

import os
import runpy
import sys

from hostspeed import HostSpeed

PERIOD_S = 0.05


def main() -> int:
    probes_file = sys.argv[1]
    del sys.argv[1]
    # As under ``-m``: the working directory, not this file's, heads sys.path.
    sys.path[0] = os.getcwd()
    clock = HostSpeed(PERIOD_S)
    code = 0
    try:
        with clock:
            clock.probe()
            try:
                runpy.run_module("twinbuild.cli", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        with open(probes_file, "w", encoding="ascii") as fh:
            fh.write(f"{clock.paused!r}\n{' '.join(map(repr, clock.speeds))}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
