"""Bit-identity pins for the AMG setup phase.

Each digest is a sha256 over everything a cold setup produces for one
(matrix, config) pair: every level's ``A``/``P``/``P_F``/``R``/``cf_marker``,
the smoothers' wavefront ``GSSchedule`` arrays, the captured ``SetupPlan``
arrays (including the RAP reuse plans), and the ``PerfLog`` record streams
of the setup and of one same-pattern refresh.  Setup-path optimizations
must leave every digest unchanged; a digest only changes when the setup's
numerics or its modeled counts change on purpose.

To print the current digests (e.g. after an intended change)::

    PYTHONPATH=src python tests/test_setup_identity.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys

import numpy as np
import pytest

from repro.amg.setup import build_hierarchy
from repro.config import AMGConfig, OptimizationFlags
from repro.perf.counters import collect
from repro.problems import generate, suite_names
from repro.serve.workload import PROBLEM_BUILDERS
from repro.sparse.csr import CSRMatrix

#: Table 2 surrogates are generated at 1/SCALE of the paper's row counts.
SCALE = 1024

CONFIGS = {
    "default": AMGConfig(),
    "classical": AMGConfig(interp="classical"),
    "direct": AMGConfig(interp="direct"),
    "fused": AMGConfig(flags=OptimizationFlags(rap_scheme="fused")),
}

MATRICES = (*suite_names(), "lap3d27g")


def _operator(name: str) -> CSRMatrix:
    if name == "lap3d27g":
        return PROBLEM_BUILDERS["lap3d27g"](8)
    return generate(name, SCALE)[0]


def _scalar(v):
    """Numbers compare by value, not by Python/numpy type."""
    if v is None or isinstance(v, (bool, np.bool_, str)):
        return v if not isinstance(v, np.bool_) else bool(v)
    if isinstance(v, (int, float, np.integer, np.floating)):
        return float(v)
    return v


class _Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def tag(self, text: str) -> None:
        self._h.update(text.encode() + b"\0")

    def array(self, name: str, a) -> None:
        if a is None:
            self.tag(f"{name}:None")
            return
        a = np.ascontiguousarray(a)
        self.tag(f"{name}:{a.dtype.str}:{a.shape}")
        self._h.update(a.tobytes())

    def matrix(self, name: str, M: CSRMatrix | None) -> None:
        if M is None:
            self.tag(f"{name}:None")
            return
        self.tag(f"{name}:{M.shape}")
        self.array(f"{name}.indptr", M.indptr)
        self.array(f"{name}.indices", M.indices)
        self.array(f"{name}.data", M.data)

    def obj(self, name: str, v) -> None:
        """Arrays, matrices and (nested) dataclasses/dicts of them."""
        if isinstance(v, CSRMatrix):
            self.matrix(name, v)
        elif isinstance(v, np.ndarray):
            self.array(name, v)
        elif dataclasses.is_dataclass(v):
            self.tag(f"{name}:{type(v).__name__}")
            for f in dataclasses.fields(v):
                self.obj(f"{name}.{f.name}", getattr(v, f.name))
        elif isinstance(v, dict):
            for k in sorted(v, key=repr):
                self.obj(f"{name}[{k!r}]", v[k])
        elif isinstance(v, (list, tuple)):
            self.tag(f"{name}:len={len(v)}")
            for i, x in enumerate(v):
                self.obj(f"{name}[{i}]", x)
        else:
            self.tag(f"{name}={_scalar(v)!r}")

    def records(self, name: str, log) -> None:
        self.tag(f"{name}:len={len(log.records)}")
        for r in log.records:
            self.tag(repr(tuple(_scalar(x) for x in dataclasses.astuple(r))))

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _hierarchy(d: _Digest, name: str, h) -> None:
    for l, lvl in enumerate(h.levels):
        p = f"{name}.L{l}"
        d.matrix(f"{p}.A", lvl.A)
        d.matrix(f"{p}.P", lvl.P)
        d.matrix(f"{p}.P_F", lvl.P_F)
        d.matrix(f"{p}.R", lvl.R)
        d.array(f"{p}.cf_marker", lvl.cf_marker)
        if lvl.smoother is not None:
            d.obj(f"{p}.schedules", lvl.smoother._schedules)


def setup_digest(name: str, config_name: str) -> str:
    """sha256 of one cold setup plus one same-pattern refresh."""
    A = _operator(name)
    config = CONFIGS[config_name]
    d = _Digest()
    with collect() as setup_log:
        h = build_hierarchy(A, config, capture_plan=True)
    _hierarchy(d, "setup", h)
    d.obj("plan", h.plan)
    d.records("setup.log", setup_log)
    A2 = CSRMatrix(A.shape, A.indptr, A.indices, A.data * 1.25)
    with collect() as refresh_log:
        h2 = h.refresh(A2)
    _hierarchy(d, "refresh", h2)
    d.records("refresh.log", refresh_log)
    return d.hexdigest()


DIGESTS = {
    ('2cubes_sphere', 'classical'):
        '4cff174c642bc6e52b65a1a4187dc33263e24373e1d47fc3ac0ba1caab6d0ee2',
    ('2cubes_sphere', 'default'):
        '6bae2225331b926e713837b94b1bc3d9b801ade9c6b186d2ea9020eae11a0b75',
    ('2cubes_sphere', 'direct'):
        'b4da57d9c19126ad9bad6ceb3f27da7ba7efb2130ab1f6af567e77c6c7e60950',
    ('2cubes_sphere', 'fused'):
        'f2cf30967c71c804aef2068b2d8b9d2658f9d0b875dd08779aee2c1f85e5fc01',
    ('G2_circuit', 'classical'):
        '694ae249dca278cf56ee2f320c36044ea8c1b958ef7ac2794f5428c9075c8021',
    ('G2_circuit', 'default'):
        '09ad87ee4f658a868511b2219dbcb9800d20647babef14da9fee330e9453773f',
    ('G2_circuit', 'direct'):
        '5d82ec51f14d37c50f0531a90844ebb0e264d6c272a2d7e89b259409f09f81bf',
    ('G2_circuit', 'fused'):
        'fd6a3370af0f3d2069959d7474628087acc5a130bb428894131f9c8f38da95b4',
    ('G3_circuit', 'classical'):
        '7f0ac5cb89010d780a9c67949354045ad2427d47c498dfb05d3d8aa7e993f7f5',
    ('G3_circuit', 'default'):
        '5eecd3c7ec5e49d326d3827e9abc4385c0bfc9d3359f9eb05be5ec0d4162c102',
    ('G3_circuit', 'direct'):
        '6a87caf29c78f74277ce6cc9c181c035b00ca1e32eb29a73d2d5a6db527faf46',
    ('G3_circuit', 'fused'):
        'dd593fc8b143350ad498fa05e854a3fcef613f19b29ac64ab4ac7fd0a5d97982',
    ('StocF-1465', 'classical'):
        '90883afd757aec95af1d20ebd021d5479488a251897050cd8bf54c93d5ad984c',
    ('StocF-1465', 'default'):
        'b3db089a7c63817d975d7abc7575032e3be9f466ebce552f333ac3f1570dc3e6',
    ('StocF-1465', 'direct'):
        '3af969ab6f4fa8409a13abaa827effd1884017523d5e5fc0888c70d249cdcc74',
    ('StocF-1465', 'fused'):
        '58cbfca6cf05bf91907f66638cb7e0a6b275ae388923aa2db9f5ed83437305f3',
    ('apache2', 'classical'):
        'be83898267df4dd54cbefca84b1a5718618a402a527a66877e0487d0eb26cb9c',
    ('apache2', 'default'):
        'e9b6ee2f50fd8839db70f40c63d15a5c8c9a67260c73746d0675e7711ea7a804',
    ('apache2', 'direct'):
        'f609cf730637e2a7a4f09eea998cd9c46336b6bcc74054bcf18683676c0d5e1d',
    ('apache2', 'fused'):
        '4abca0e27f96b8f6397e950054f1b5cf9a96d82d7b6c7c6c6c0ca8ccbf743965',
    ('atmosmodd', 'classical'):
        '0126e12d0aae52d2e1a75eef8b77b4594291b723887d15f8f714680fc6f05b76',
    ('atmosmodd', 'default'):
        '77b1bc637a33206e5ae925bd5d6602e4d74a9a7a2e4926cb48b27bc8a4346733',
    ('atmosmodd', 'direct'):
        '3a717987fc27605430b313808f35142019c32f18637aade4859e7285d1804b29',
    ('atmosmodd', 'fused'):
        '98209c5e27b3dfffc9a860a7aae5036b942f4c595a31472ab95e4961f8b6cc8b',
    ('atmosmodj', 'classical'):
        'd395be8ce4009191b5418f4554f1d1b8b994e15e061555c81fa563c211f593f1',
    ('atmosmodj', 'default'):
        '1397596b1b116ca5b815947b9288f94bea7041fb22dfbdbc486e6e588a1db5db',
    ('atmosmodj', 'direct'):
        '9675ae9f6eff6afff2f3a86be431f3f55f0d8fafdff9796a1cbfdf8386e66b56',
    ('atmosmodj', 'fused'):
        '8764dd320b4ece2a5f9d1a522b31d025ebd040605f0377ecceaf61c4e9e8ee8c',
    ('atmosmodl', 'classical'):
        'dcbdfcc4052060719e58dcba44c04393c9d62c9708ceca2948b2928b3a879806',
    ('atmosmodl', 'default'):
        'bf899c1fdb6f9ef41f5407371888b60587d53688e9759c4d6de205f66eacfc8f',
    ('atmosmodl', 'direct'):
        '461d0004988cad778af4940b7999d5f26179dd7d75b84067588b6bf81e8a7d8a',
    ('atmosmodl', 'fused'):
        'd6cf190e84d172ea0c17272b4f4c9d014ffba417a8b288b841f0f81430da1e3f',
    ('ecology2', 'classical'):
        'a812cc790b6bbcc4bb4251a58047e8bb7f26fc8cef188a3cf30006ad2020df93',
    ('ecology2', 'default'):
        '88fefb916eaddf1e44817cdafea23637d03b9203cfae277d4097194d0a3c90d8',
    ('ecology2', 'direct'):
        '16537193e80efc7661d1f95415799a924d0a64ac6ea1400022dd41f0f28c5b54',
    ('ecology2', 'fused'):
        'e1282e125d2926f5823655602fc4992ddd030765b24f66147f504f542679ead9',
    ('lap2d_2000', 'classical'):
        'eec4e7b70cc11ef63c2b94d64c7906d3df706c87e7431d91927cd526485fd619',
    ('lap2d_2000', 'default'):
        'ceb69bc62925c7462b96eeb933887ea50a4e16fd9ecaacc901351fa59fd2e624',
    ('lap2d_2000', 'direct'):
        '7b21cb1f90e196d18abdd8db96641abec2681df426a1f4cf1c05517f2d9be80f',
    ('lap2d_2000', 'fused'):
        '4f513cdfa385b76b412dee5e710b841956ad11d3080fe7fb6b2baef9328151f4',
    ('lap3d_128', 'classical'):
        'b914552ef9ff58ae92eaffbabf01430a3d167d985122f16ec0b2449bddcad483',
    ('lap3d_128', 'default'):
        'b0d55458a5e366e45e2e4f88e2706da362aeac4c33de94c4a913acd522fca046',
    ('lap3d_128', 'direct'):
        'ce52adf493286d0f1dbd2e4fb229704fea951a766627038a37fbdf7827560bcc',
    ('lap3d_128', 'fused'):
        '74e326d06a8f01e003ecf322dbbd789e0e88ea50d0f08def387a87982093f35c',
    ('parabolic_fem', 'classical'):
        '8594b0ff8399d981a23401c5f41071f909ec5c025604984cfe5771e267489cbb',
    ('parabolic_fem', 'default'):
        'd2a70b8a68dc5913a844d42eb1f26c3a1a1445699b1e44fd55ef8bacf6eeb028',
    ('parabolic_fem', 'direct'):
        'a1faf2752e35b01e975652e27298cf14c8d880d78f50a2d49233b10d843230ea',
    ('parabolic_fem', 'fused'):
        '8467eec55d227d74f2b5788b457193828caa8d32db8d3756581596037efd9c46',
    ('thermal2', 'classical'):
        '71a0454fffc75142567ba417cd7fe62d49fbc4325e56360ec76c9ec4ffff47cf',
    ('thermal2', 'default'):
        '30721a16afbe120655f3d7bfe0cb6a6fc474f2d05f7228160e0407591f353170',
    ('thermal2', 'direct'):
        '8ed5777cb968301c574f8ae0ab7f2e4956c0c5a27352389ad46ccaa1c41a46f4',
    ('thermal2', 'fused'):
        '1e593935f370a9e212093bdb2b904bf80b123536d7e26a10ec9c19c12d627d7a',
    ('tmt_sym', 'classical'):
        '59858905b7c591b64c13c048f1cc67677089b305ec1e94410a163a9d9cb73f7d',
    ('tmt_sym', 'default'):
        '9d01790ab8f0d03ce7851dc7e075635cb154df14f0e07161cee69666ce2dfb60',
    ('tmt_sym', 'direct'):
        'c39cdaa7677d38ebd01c91d6a7c3beceeb9d270250875ecbd7d4927ab20f4bfa',
    ('tmt_sym', 'fused'):
        '964b0520b7f2b8bba3fa3574b9ed5d966cfda9f6bd242a58f26aa4cb7819328d',
    ('lap3d27g', 'classical'):
        'af84f9c13b99ff72ea3f196de18ea1099e19a265ee79a3544f3f769b276d98be',
    ('lap3d27g', 'default'):
        '72ab2ebd0ee73c54d37e309faef7e81001de44fcc07bd3c70fd4970e0549750e',
    ('lap3d27g', 'direct'):
        '5bf08e376e043488e0b0c40fe0c180fe7c50383bdc2a7088163ecdf4e96068c2',
    ('lap3d27g', 'fused'):
        '0764380adbc7448cef28f69c0747a229c6e62e34a05d7a73491129d600c38e21',
}


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("name", MATRICES)
def test_setup_is_bit_identical(name, config_name):
    assert setup_digest(name, config_name) == DIGESTS[(name, config_name)]


if __name__ == "__main__":
    print("DIGESTS = {")
    for name in MATRICES:
        for config_name in sorted(CONFIGS):
            print(f"    ({name!r}, {config_name!r}):")
            print(f"        {setup_digest(name, config_name)!r},")
            sys.stdout.flush()
    print("}")
