"""Set-up probe: build the C simulator kernel and print the software fingerprint.

``python perfbench/probe.py`` resolves the simulator backend the way a CLI
run does (which compiles ``_simkernel.c`` into the kernel cache under
``$HOME`` when it is not there yet), imports the modules a timed run imports
so their bytecode is cached, and prints one JSON object: python, numpy, the
package's code version and the resolved backend name.
"""

import json
import platform
import sys


def main() -> int:
    import numpy

    import repro.analysis.experiments  # noqa: F401  (bytecode for the timed runs)
    import repro.cli  # noqa: F401
    from repro.analysis.store import code_version
    from repro.simulator.backend import resolve_backend

    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "code_version": code_version(),
                "sim_backend": resolve_backend(None).name,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
