"""One sha256 per benchmark workload over the exact bits of every op's output.

Usage (from the root of a checkout):

    python3 tools/output_hashes.py                     # this checkout
    python3 tools/output_hashes.py --root OTHER_CHECKOUT

For ``apparatus``, ``mesh`` and ``source_model``, over seeds 1, 2 and 3,
every op of one round of ``perfbench/workloads.py`` runs twice: first with
every ``functools`` cache of the library cleared, then warm.  Each output is encoded with every real and imaginary part as
``float.hex`` and every state's terms in their stored order, and the line
``<workload> <sha256>`` is printed per workload.  Two trees whose lines are
equal computed the same bits.  The benchmark files are imported, not edited.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

WORKLOADS = ("apparatus", "mesh", "source_model")
SEEDS = (1, 2, 3)


def encode(value) -> str:
    """``value``'s exact bits as text: floats by ``float.hex``, complex by both
    parts, states by their ordered terms, lists and tuples element by element."""
    from fockfuse.states import PureState

    if isinstance(value, PureState):
        return "S[" + ",".join(f"{occ!r}:{encode(amp)}" for occ, amp in value.items()) + "]"
    if isinstance(value, bool):
        return repr(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return f"{value.real.hex()}{value.imag.hex()}j"
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(encode(v) for v in value) + ")"
    raise TypeError(f"cannot encode {type(value).__name__}")


def clear_caches() -> None:
    """Clear every ``functools`` cache that a ``fockfuse`` module holds."""
    for name, module in list(sys.modules.items()):
        if name == "fockfuse" or name.startswith("fockfuse."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def workload_hash(name: str) -> str:
    import workloads

    digest = hashlib.sha256()
    for seed in SEEDS:
        for op in workloads.MAKERS[name](seed).ops:
            clear_caches()
            for _ in range(2):  # cold, then warm
                digest.update(f"{op.kind} {encode(op.run())}\n".encode())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for name in WORKLOADS:
        print(name, workload_hash(name), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
