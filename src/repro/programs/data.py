"""Data layout and generation for the matrix-multiplication experiments.

**Layout (paper Figure 5).**  Matrices are stored in *columnar* format:
each of the p PEs holds ``n/p`` adjacent columns of A, B and C; within a PE
a column is ``n`` consecutive 16-bit words.  Columnar storage is what lets
A's columns rotate left by a pointer change, lets B×A be computed as well
as A×B without rearrangement, and keeps I/O uniform — the reasons the
paper gives for choosing it.

Two implementation notes (documented deviations):

* B columns are stored **doubled** (each column's n words repeated twice)
  in the parallel versions.  The B-row index advances by one per rotation
  step with wraparound mod n; doubling turns the wraparound into a plain
  pointer increment, removing a compare-and-wrap from the inner setup at
  the cost of n/p · n extra words.  The serial version walks B
  sequentially and keeps single columns.
* A is the identity matrix and B uniformly random, as in the paper's
  Section 6: the MC68000 multiply time depends only on the *multiplier*
  (the B element); using the identity for A (the multiplicand) makes
  results trivially checkable without changing the timing distribution.

**B value range.**  The paper says only "a uniformly distributed random
number generator".  The number of random bits in the B values sets the
variance of ``MULU`` times and therefore the SIMD-vs-asynchronous
crossover; it is a calibration parameter (default
:data:`DEFAULT_B_BITS`), fitted so the Figure 7 crossover lands where the
paper reports it (≈14 added multiplies).  See EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import DEFAULT_SEED, make_rng

#: Calibrated number of random low bits in B's values (see module docs).
DEFAULT_B_BITS = 6
#: Calibrated exclusive upper bound of B's uniform values.  Overrides
#: ``b_bits`` when generating experiment data; fitted so the Figure 7
#: crossover lands at the paper's ≈14 added multiplies (n=64, p=4).
DEFAULT_B_MAX: int | None = 256


@dataclass(frozen=True)
class MatmulLayout:
    """Per-PE memory layout for an (n, p) matrix multiplication.

    Addresses are bytes in PE main memory.  The program text sits below
    ``tt_base``; the TT (A-column pointer) and BPTR (B-element pointer)
    tables sit between text and matrices.
    """

    n: int
    p: int
    text_base: int = 0x0100
    tt_base: int = 0x0C00
    bptr_base: int = 0x0E00
    a_base: int = 0x1000

    def __post_init__(self) -> None:
        if self.n < 1 or self.p < 1:
            raise ConfigurationError(f"bad problem size n={self.n}, p={self.p}")
        if self.n % self.p:
            raise ConfigurationError(
                f"n ({self.n}) must be a multiple of p ({self.p})"
            )
        if self.p > 1 and self.n < self.p:
            raise ConfigurationError(f"n ({self.n}) smaller than p ({self.p})")

    @property
    def cols(self) -> int:
        """Columns of each matrix held per PE (n/p)."""
        return self.n // self.p

    @property
    def col_bytes(self) -> int:
        """Bytes per stored column (n 16-bit words)."""
        return 2 * self.n

    @property
    def b_doubled(self) -> bool:
        """Parallel versions double B columns to avoid index wraparound."""
        return self.p > 1

    @property
    def b_col_bytes(self) -> int:
        return self.col_bytes * (2 if self.b_doubled else 1)

    @property
    def b_base(self) -> int:
        return self.a_base + self.cols * self.col_bytes

    @property
    def c_base(self) -> int:
        return self.b_base + self.cols * self.b_col_bytes

    @property
    def end(self) -> int:
        return self.c_base + self.cols * self.col_bytes

    # -- element addresses ----------------------------------------------
    def a_col_addr(self, v: int) -> int:
        return self.a_base + v * self.col_bytes

    def b_col_addr(self, v: int) -> int:
        return self.b_base + v * self.b_col_bytes

    def b_elem_addr(self, row: int, v: int) -> int:
        return self.b_col_addr(v) + 2 * row

    def c_col_addr(self, v: int) -> int:
        return self.c_base + v * self.col_bytes

    def vp0(self, logical_pe: int) -> int:
        """First global column index (= virtual PE number base) of a PE."""
        return logical_pe * self.cols


# ---------------------------------------------------------------------------
def generate_matrices(
    n: int,
    *,
    seed: int = DEFAULT_SEED,
    b_bits: int = DEFAULT_B_BITS,
    b_max: int | None = None,
    experiment: str = "matmul",
) -> tuple[np.ndarray, np.ndarray]:
    """The paper's test data: A = identity, B uniform random.

    B's values are uniform in ``[0, b_max)`` (``b_max`` defaults to
    ``2**b_bits``, or :data:`DEFAULT_B_MAX` when set).  Returns ``(A, B)``
    as uint16 arrays of shape (n, n).  The same ``(seed, n, range)``
    always produces the same B — "the same data sets were used on all
    versions of the algorithm".
    """
    b = generate_multipliers(n, seed=seed, b_bits=b_bits, b_max=b_max,
                             experiment=experiment)
    return np.eye(n, dtype=np.uint16), b


def generate_multipliers(
    n: int,
    *,
    seed: int = DEFAULT_SEED,
    b_bits: int = DEFAULT_B_BITS,
    b_max: int | None = None,
    experiment: str = "matmul",
) -> np.ndarray:
    """B of :func:`generate_matrices` alone, for callers that never read A
    (the macro model only needs the multipliers)."""
    if not 0 < b_bits <= 16:
        raise ConfigurationError(f"b_bits must be in (0, 16], got {b_bits}")
    if b_max is None:
        b_max = DEFAULT_B_MAX if DEFAULT_B_MAX is not None else 1 << b_bits
    if not 1 < b_max <= 1 << 16:
        raise ConfigurationError(f"b_max must be in (1, 65536], got {b_max}")
    rng = make_rng(seed, experiment, n, b_max)
    return rng.integers(0, b_max, size=(n, n), dtype=np.uint16)


def expected_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A×B over 16-bit unsigned integers with overflow ignored."""
    return (a.astype(np.uint32) @ b.astype(np.uint32)).astype(np.uint16)


def pe_column_slice(m: np.ndarray, layout: MatmulLayout, logical_pe: int) -> np.ndarray:
    """The (n, n/p) column block of matrix ``m`` owned by a PE."""
    lo = layout.vp0(logical_pe)
    return np.ascontiguousarray(m[:, lo : lo + layout.cols])


def load_pe_matrices(
    memory, layout: MatmulLayout, logical_pe: int, a: np.ndarray, b: np.ndarray
) -> None:
    """Write a PE's A/B column blocks into its memory; zero its C block.

    ``memory`` is a :class:`repro.memory.module.MemoryModule`.
    """
    a_cols = pe_column_slice(a, layout, logical_pe)
    b_cols = pe_column_slice(b, layout, logical_pe)
    for v in range(layout.cols):
        memory.write_words(layout.a_col_addr(v), a_cols[:, v])
        col = b_cols[:, v]
        if layout.b_doubled:
            col = np.concatenate([col, col])
        memory.write_words(layout.b_col_addr(v), col)
        memory.write_words(
            layout.c_col_addr(v), np.zeros(layout.n, dtype=np.uint16)
        )


def read_pe_result(memory, layout: MatmulLayout) -> np.ndarray:
    """Read a PE's C column block back as an (n, n/p) array."""
    cols = [
        memory.read_words(layout.c_col_addr(v), layout.n)
        for v in range(layout.cols)
    ]
    return np.stack(cols, axis=1)


def assemble_result(pe_blocks: list[np.ndarray]) -> np.ndarray:
    """Concatenate per-PE C column blocks into the full matrix."""
    return np.concatenate(pe_blocks, axis=1)


# ---------------------------------------------------------------------------
def multiplier_schedule(b: np.ndarray, p: int) -> np.ndarray:
    """The multiplier value each PE uses at each (rotation step, column).

    Returns shape ``(p, n, n/p)``: entry ``[i, j, v]`` is the B element
    that PE *i* holds in D1 for the n inner-loop multiplications of
    rotation step *j* on local column *v* — namely
    ``B[(vp0+v+j) mod n, vp0+v]``.

    This single function feeds both engines: the micro engine realizes it
    implicitly by executing the program on the loaded data; the macro
    timing model consumes it directly, which is what makes the cross-engine
    validation exact.
    """
    n = b.shape[0]
    cols = n // p
    vp = np.arange(n)  # global column index
    j = np.arange(n)[:, None]  # rotation step
    rows = (vp[None, :] + j) % n  # (n, n): row used at step j for column vp
    sched = b[rows, vp[None, :]]  # (n_steps, n_columns)
    # split columns by PE: (p, n, cols)
    return np.stack(
        [sched[:, i * cols : (i + 1) * cols] for i in range(p)], axis=0
    )
