"""The protocol fixture of the one kernel guard.

``tests/test_one_kernel_builder.py`` scans ``protocol.py`` for kernel
builds outside ``grape._build_kernels``, layout lookups outside
``protocol._stage_layouts`` and drift assembly outside
``_stage_terms``. This is its self-test on a synthetic protocol module:
a stage kernel built in ``_evolve``, a second layout lookup, a renamed
``block_pattern``, a drift read outside the assembler and a memo keyed
on array bytes are each flagged.
"""

from test_one_kernel_builder import PROTOCOL_OWNERS, kernel_builds


def test_the_scan_finds_kernel_builds():
    source = (
        "from .grape import ClosedFormPropagator\n"
        "from .operators import block_pattern as layout\n"
        "def _stage_layouts(terms, support):\n"
        "    return block_pattern(terms, 3, None, support)\n"
        "def _build_kernels(layout, coeffs, diagonal):\n"
        "    return [ClosedFormPropagator(h, 0) for _, h in layout.fill(coeffs, diagonal)]\n"
        "def _evolve(state, terms, coeffs, diagonal):\n"
        "    blocks = layout(terms, 3, None, [0]).fill(coeffs, diagonal)\n"
        "    return [grape.ClosedFormPropagator(h, 0) for _, h in blocks]\n"
        "def _stage_layout(terms):\n"
        "    return [block_pattern(terms, 3, None, [0])]\n"
        "def _stage_kernels_too(layout):\n"
        "    return _stage_layouts(layout).fill([], [])\n"
        "kernel = ClosedFormPropagator\n"
        "def _stage_terms(drives, geometry):\n"
        "    return drift_terms(RydbergModel(geometry), PROTOCOL_BASIS)\n"
        "def _evolve_too(state, geometry):\n"
        "    return chain.drift_terms(RydbergModel(geometry), PROTOCOL_BASIS)[1]\n"
        "def _kernel_memo(layout, coeffs):\n"
        "    return _memo(layout, coeffs.tobytes())\n"
        "def _memo(layout, data):\n"
        "    return _build_kernels(layout, np.frombuffer(data), [])\n"
    )
    assert kernel_builds(source, PROTOCOL_OWNERS) == [
        "<module>:2 block_pattern as layout",
        "_evolve:8 fill",
        "_evolve:9 ClosedFormPropagator",
        "_stage_layout:11 block_pattern",
        "_stage_kernels_too:13 fill",
        "<module>:14 ClosedFormPropagator",
        "_evolve_too:18 drift_terms",
        "_kernel_memo:20 tobytes",
        "_memo:22 frombuffer",
    ]
