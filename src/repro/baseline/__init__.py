"""The MIS II-style baseline technology mapper (Section 4 of the paper).

Conventional library-based mapping as the paper compares against:

* the network is decomposed into a two-input AND/OR *subject graph*
  (MIS's ``tech_decomp``);
* each fanout-free tree is covered by dynamic programming over tree cuts,
  matching every candidate cut's boolean function against a *library*;
* the library is complete for K=2 and K=3 (all 10 / 78
  permutation-unique functions) and, for K=4 and K=5, is built per
  Section 4.1 from level-0 kernels with K or fewer literals, their duals,
  and the common circuit elements (ANDs, XORs, AOI-style gates);
* input inverters are free (Boolean matching is NP-equivalence, and a
  complement fallback models the merged output inverters the paper grants
  MIS), and inverters are not counted as logic blocks.
"""

from repro.baseline.library import Library, complete_library, kernel_library
from repro.baseline.subject import decompose_to_binary
from repro.baseline.mis_mapper import MisMapper

__all__ = [
    "Library",
    "complete_library",
    "kernel_library",
    "decompose_to_binary",
    "MisMapper",
]
