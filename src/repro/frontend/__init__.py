"""Frontend: compiles the restricted-Python NF dialect into NFIL.

This subpackage plays the role of ``clang -emit-llvm`` in the paper's
toolchain: NF authors write packet-processing code in a small, statically
analysable subset of Python (integers, fixed-size memory regions accessed
by subscript, structured control flow, calls to helper functions and the
``castan_havoc`` intrinsic), and the compiler lowers it to NFIL for the
symbolic and concrete interpreters.
"""
