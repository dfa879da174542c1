"""Exact arithmetic for finite subgroups of GL2 over residue rings.

Subgroup closure, named subgroups and their normalizers, constructive
conjugation witnesses, degree spectra of vector stabilizers, the Borel-image
classification pipeline, and the congruence sieve and prime-bound arithmetic
built on top of them.
"""

from .errors import (
    Gl2Error,
    LemmaViolationError,
    PreconditionError,
    ResourceLimitError,
    SingularMatrixError,
    UsageError,
)
from .modarith import Mat2, element_order, gl2_order, primitive_root
from .groups import (
    NamedGroupId,
    Subgroup,
    closure,
    diagexp_pair,
    diagexp_span,
    named_group,
    subgroup_from_entries,
    subgroup_from_json,
    subgroup_to_json,
    tau,
)
from .stabilizers import (
    DegreeSpectrum,
    ProjPoint,
    degree_spectrum,
    exhaustive_indices,
    exhaustive_spectrum,
    line_indices,
    orbit_size,
    sl_part,
    stabilizer,
    unipotent_class,
    vector_stabilizer,
)
from .lemmas import (
    Conjugation,
    SL2Word,
    conjugate_into_cartan,
    conjugate_into_normalizer,
    cyclic_generator,
    decompose_sl2,
    normalizer_in_gl2,
)
from .classify import (
    BlVerdict,
    classify_image,
    cong_check,
    derive_delta,
    mod36_filter,
    not_bl_check,
)
from .bounds import (
    AbelianGroupSpec,
    BoundReport,
    Embedding,
    FieldInput,
    LPartVerdict,
    bound_report,
    congruence_sieve,
    l_part_check,
    p_bound,
    r_set,
    smallprime_coprimality,
    torsion_preservation_report,
)
from .verify import HARNESS_IDS, HarnessResult, run_harness

__version__ = "1.0.0"
