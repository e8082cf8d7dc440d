"""repro — reproduction of "When the Recursive Diversity Anonymity Meets
the Ring Signature" (Ni, Cheng, Chen, Lin — SIGMOD 2021).

The package implements the paper's diversity-aware mixin selection
(DA-MS) problem and the TokenMagic framework end to end, together with
every substrate the paper depends on:

* :mod:`repro.crypto` — Ed25519 + bLSAG linkable ring signatures
  (the RS scheme's Steps 2 and 3).
* :mod:`repro.chain` — a UTXO blockchain with ring-signature inputs,
  key-image double-spend protection and configuration verification.
* :mod:`repro.core` — privacy semantics (recursive (c, l)-diversity,
  DTRSs), the DA-MS problem, the exact BFS solver, the practical
  configurations and the Progressive / Game-theoretic / baseline
  selectors (the RS scheme's Step 1).
* :mod:`repro.tokenmagic` — the TokenMagic framework: batches,
  per-batch registries, Theorem 4.1 consumed-token inference, the eta
  reserve constraint and Algorithm 1's candidate randomization.
* :mod:`repro.analysis` — the adversary: chain-reaction cascade,
  homogeneity attack, side-information elimination and anonymity
  metrics.
* :mod:`repro.data` — Monero-shaped and synthetic dataset generators
  matching the paper's experimental settings (Tables 2 and 3).
* :mod:`repro.experiments` — the harness that regenerates every figure.
"""

__all__ = ["__version__"]


def __getattr__(name: str) -> str:
    # The installed distribution's version, read on first access only:
    # importlib.metadata costs a daemon start tens of milliseconds.
    if name != "__version__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib.metadata import PackageNotFoundError, version

    try:
        value = version("repro")
    except PackageNotFoundError:  # pragma: no cover - not installed
        value = "0.0.0"
    globals()["__version__"] = value
    return value
