"""End-to-end benchmark of ``repro`` against ``np.matmul`` on the same host.

Run one workload with ``python3 fmmbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; the last line of standard output is the JSON
result.  ``run.py`` documents the phases and metrics; ``workloads.py`` says
why each workload exists.
"""
