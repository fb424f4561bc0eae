"""Reference implementations the equivalence suites compare against.

Code here was once a production path; it now exists only so tests can
prove the single production path still computes the same answer.
"""
