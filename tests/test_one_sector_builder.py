"""The spin-path fixture of the one kernel guard.

``tests/test_one_kernel_builder.py`` scans ``grape.py`` and
``protocol.py`` for kernel builds outside ``grape._build_kernels``, the
one builder. This is its self-test on a synthetic spin-path module: a
sector kernel built in ``SpinSectors`` itself, a memo keyed on array
bytes, and a renamed or module-level ``ClosedFormPropagator`` are each
flagged, and so is the second ``lru_cache`` such a module would add.
"""

from test_one_kernel_builder import OWNERS, kernel_builds


def test_the_scan_finds_sector_builds():
    source = (
        "from .operators import ClosedFormPropagator as Kernel\n"
        "class ClosedFormPropagator:\n"
        "    pass\n"
        "def _build_kernels(layout, hz, coeffs, diagonals):\n"
        "    return [ClosedFormPropagator(h, hz[i]) for i, h in layout.fill(coeffs, diagonals)]\n"
        "class SpinSectors:\n"
        "    def _kernels(self, rows):\n"
        "        blocks = self._pattern.fill(self._coeffs[rows], self._diagonals[rows])\n"
        "        return [ClosedFormPropagator(h, self._hz[i]) for i, h in blocks]\n"
        "@functools.lru_cache(maxsize=32)\n"
        "def _sector_kernels(model, layout, coeffs):\n"
        "    return _memo(model, layout, coeffs.tobytes())\n"
        "def _memo(model, layout, data):\n"
        "    return _build_kernels(layout, 0, np.frombuffer(data), 0)\n"
        "kernel = grape.ClosedFormPropagator\n"
    )
    assert kernel_builds(source, OWNERS) == [
        "<module>:1 ClosedFormPropagator as Kernel",
        "_kernels:8 fill",
        "_kernels:9 ClosedFormPropagator",
        "_sector_kernels:10 lru_cache",
        "_sector_kernels:12 tobytes",
        "_memo:14 frombuffer",
        "<module>:15 ClosedFormPropagator",
    ]
