"""Exact signatures of hermitian forms and positive cones over algebras
with involution, for real number fields."""

from .exactnum import (
    Interval,
    Polynomial,
    SturmSequence,
    count_real_roots,
    count_roots_with_signs,
    count_roots_with_signs_formula,
    isolate_real_roots,
    refine_interval,
    sturm_sequence,
    tarski_query,
)
from .orderings import (
    FieldElement,
    NumberField,
    OrderingHandle,
    embed_field,
    harrison_set,
    list_orderings,
    sign_of,
)
from .qforms import QuadraticForm, pfister, signature_qf
from .algebras import (
    AlgebraElement,
    AlgebraWithInvolution,
    DElement,
    DivisionAlgebraDesc,
    base_desc,
    make_algebra,
    nil_orderings,
    quadratic_desc,
    quaternion_desc,
    quaternion_division_check,
)
from .hermitian import (
    HermitianForm,
    SignatureVector,
    diagonal_form,
    diagonalize_hermitian,
    local_degree_nP,
    max_signature_mP,
    signature,
    signature_vector,
    star_pairing,
    trace_transfer,
)
from .cones import (
    ConeWitness,
    PositiveConeHandle,
    cone_axioms_check,
    cone_membership,
    extend_cone,
    harrison_sigma,
    list_positive_cones,
    project_pi,
    psd_membership,
)
from .wittideal import (
    NotFound,
    ZWitness,
    find_Z_witness,
    in_IP,
    in_NP,
    mideal_check,
    sylvester_reduction,
    verify_witness,
)

__version__ = "0.1.0"
