"""homkit: exact desk-scale checks for homogeneous-structure geometry.

Dense exact tensors, Lie algebras as structure constants, the
vector/cyclic/3-form split of metric torsion tensors, singular
homogeneous plane waves as explicit charts, and the normalizations
that take consistent bracket tables to symmetric-space or plane-wave
form.
"""

import importlib.util
import sys


def _lazy(name):
    """Register ``homkit.<name>`` so that it runs on first attribute access.

    The module is in ``sys.modules`` from the start, so ``import`` and
    ``sys.modules`` lookups find it, but it runs (and plane_wave loads
    numpy) only when one of its names is read.
    """
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


# every submodule runs on first use; of them only plane_wave loads numpy
exact, tensor_core, lie_algebra, hom_structure, wave_table, wave_curvature, reduction, plane_wave = map(
    _lazy, "exact tensor_core lie_algebra hom_structure wave_table wave_curvature reduction plane_wave"
    .split())

_LAZY_NAMES = {
    name: module
    for module, names in (
        (exact, "EXACT FLOAT"),
        (tensor_core, "FrameMetric Tensor antisymmetrize contract raise_lower"),
        (lie_algebra, "LieAlgebra ReductiveSplit change_basis check_reductive jacobi_residual"),
        (hom_structure, "CurvatureAtPoint HomogeneousStructure SpanError StructureClass "
                        "build_isometry_algebra classify decompose trace_one_form"),
        (wave_table, "PlaneWaveData pw_isometry_algebra"),
        (wave_curvature, "exact_curvature frame_structure"),
        (plane_wave, "ChartPoint as_residuals christoffel metric_jet riemann sample_points structure_at"),
        (reduction, "DegenerateAnsatz NondegenerateAnsatz ReductionReport ansatz_from_plane_wave "
                    "assemble_algebra degenerate_reduce f_derivation generate_instance "
                    "nondegenerate_reduce verify_constraints"),
    )
    for name in names.split()
}


def __getattr__(name):
    # looked up on every access, not cached, so a name rebound in its
    # defining module (a wrapper, a mock) is seen here too
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


__version__ = "0.1.0"
