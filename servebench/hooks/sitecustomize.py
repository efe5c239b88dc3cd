"""Turn on the benchmark's span recorder in a traced process.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
directory that has one.  The benchmark puts this directory on the
``PYTHONPATH`` of the processes it launches only for a traced run, with
``SERVEBENCH_TRACE_DIR`` naming where each process writes its spans on
exit; spawned shard workers inherit both.
"""

import os

if os.environ.get("SERVEBENCH_TRACE_DIR"):
    import servebench_spans

    servebench_spans.install()
    servebench_spans.dump_at_exit(os.environ["SERVEBENCH_TRACE_DIR"])
