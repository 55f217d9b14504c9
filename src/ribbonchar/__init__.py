"""Exact characters of border-strip path spaces: skew Schur functions by
independent methods, spectral fibers, q-series identities, and their
signed-alphabet analogues."""

from .polyring import (
    Laurent,
    QPoly,
    QSeries,
    Ring,
    RingContextError,
    determinant,
    elementary_symmetric,
    gaussian_multinomial,
    q_pochhammer,
)
from .shapes import (
    BorderStrip,
    Partition,
    SkewDiagram,
    complement,
    drinfeld_polynomials,
    is_border_strip,
    is_rank,
    strip_from_skew,
    t_statistic,
)
from .tableaux import (
    GZScheme,
    Tableau,
    count_LR,
    enumerate_L_admissible,
    enumerate_admissible,
    enumerate_sst,
    filling_sum,
    gz_from_sst,
    is_lattice_permutation,
    kostka_number,
    sst_from_gz,
    tableau_weight,
)
from .schur import (
    lr_expand,
    schur_conjugate,
    schur_enumerative,
    schur_jacobi_trudi,
)
from .spectra import (
    SpectrumPoint,
    SpinConfiguration,
    Z_vertex,
    energy,
    enumerate_Sp_N,
    enumerate_fiber,
    fiber_character,
    h_map,
    hs_eigenvalue,
    kappa,
    local_energy,
    motif_excitation,
    motif_to_blocks,
    motifs,
    phi,
    phi_inverse,
    weight,
)
from .characters import (
    A_closed,
    F_N,
    KostkaResult,
    branching_function,
    kostka_foulkes,
    kostka_oracle,
    level1_decomposition,
    level1_theta,
    polychronakos_partition,
    rogers_szego,
    rogers_szego_recursive,
)
from .twisted import (
    TwistedConfiguration,
    chi_twisted,
    energy_twisted,
    kappa_twisted,
    local_energy_twisted,
    sL_determinant,
    sigma_character,
    t_character,
    twisted_decomposition,
    twisted_level1_theta,
    weight_twisted,
)

__version__ = "0.1.0"
