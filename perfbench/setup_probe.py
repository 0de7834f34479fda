"""Set-up cost of one CLI invocation, measured in a fresh interpreter.

Times ``import mbsplan.cli`` plus the first QoS evaluation, which builds the
unit kernel; a second evaluation at other densities gives the kernel-free
cost, so the difference is the kernel build. Prints one JSON object.
Run with ``src`` on ``PYTHONPATH``.
"""

import json
import time

t0 = time.perf_counter()
import mbsplan.cli  # noqa: E402,F401  (the import is what is timed)
import mbsplan  # noqa: E402

t1 = time.perf_counter()
params = mbsplan.RadioParams()
mbsplan.evaluate_qos(20e-6, 1000e-6, params)
t2 = time.perf_counter()
mbsplan.evaluate_qos(30e-6, 2000e-6, params)
t3 = time.perf_counter()
print(json.dumps({"setup_s": t2 - t0, "import_s": t1 - t0,
                  "kernel_build_s": (t2 - t1) - (t3 - t2), "module": mbsplan.__file__}))
