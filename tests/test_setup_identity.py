"""Bit-identity pins for the AMG setup phase.

Two sha256 tables per (matrix, config) pair:

* the *numerics* digest (:data:`DIGESTS`) covers what a cold setup and one
  same-pattern refresh produce: every level's ``A``/``P``/``P_F``/``R``/
  ``cf_marker``, the smoothers' wavefront ``GSSchedule`` arrays, and the
  ``PerfLog`` record streams of the setup and of the refresh.  Setup-path
  optimizations must leave it unchanged; it only changes when the setup's
  numerics or its modeled counts change on purpose.
* the *plan* digest (:data:`PLAN_DIGESTS`) covers the captured
  ``SetupPlan`` arrays (including the RAP reuse plans).  It changes
  whenever the plan's layout does — e.g. when refresh caches more term
  maps — while the numerics digest stays put.

To print the current digests (e.g. after an intended change)::

    PYTHONPATH=src python tests/test_setup_identity.py
"""

from __future__ import annotations

import dataclasses
import hashlib

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


def setup_digests(name: str, config_name: str) -> tuple[str, str]:
    """``(numerics, plan)`` sha256s of one cold setup plus one
    same-pattern refresh."""
    A = _operator(name)
    config = CONFIGS[config_name]
    d = _Digest()
    with collect() as setup_log:
        h = build_hierarchy(A, config, capture_plan=True)
    _hierarchy(d, "setup", h)
    d.records("setup.log", setup_log)
    A2 = CSRMatrix(A.shape, A.indptr, A.indices, A.data * 1.25)
    with collect() as refresh_log:
        h2 = h.refresh(A2)
    _hierarchy(d, "refresh", h2)
    d.records("refresh.log", refresh_log)
    dp = _Digest()
    dp.obj("plan", h.plan)
    return d.hexdigest(), dp.hexdigest()


DIGESTS = {
    ('2cubes_sphere', 'classical'):
        '96c69110d98830759a08e7883007cae499d63602ea82ccf8ecdfdab3f37cb8c9',
    ('2cubes_sphere', 'default'):
        '047f811e5ac77b3a2e43d58f5ac74cd28891a1db40eddfa80a33651f463a1b9c',
    ('2cubes_sphere', 'direct'):
        '1ff08c50d8ab37278936e967038c664a569b4bd272dcd2b6827516fe6cd69ebf',
    ('2cubes_sphere', 'fused'):
        '1c6486dcb35820e54486e425e20ecabb6f393acd1e89de5b42d89b7ff46a0507',
    ('G2_circuit', 'classical'):
        '894e32decb831da902775e18e8de9aa2ebe3495bb2f0b2b0876ee59cdc303509',
    ('G2_circuit', 'default'):
        '4e1eee3f31201c8adaee54e9be99d7cfd1c6c166e992b0b7f5d7d8db9beec0b6',
    ('G2_circuit', 'direct'):
        'ebf46468c7cc1667d78125871073ebddfb4a7864665ee1950f05a3594679ca63',
    ('G2_circuit', 'fused'):
        '516a1c0bcc2971e78f0113e027383647d52bc192d936e90a403ab8a76e522559',
    ('G3_circuit', 'classical'):
        'f7a2dfa06556d7b5efdad4644338858ea56c4c3487c22b5e90e32bb97054d262',
    ('G3_circuit', 'default'):
        '2ca322197b1e379fac2902babd1d98c9e29b83b79654d18ddbdf5f436ac5fd48',
    ('G3_circuit', 'direct'):
        '0be89081a6da4b97bff05223ab22bd6d7a51d67880fd495e7b1aa0337a89ec89',
    ('G3_circuit', 'fused'):
        '79033e6a241668f5b343a64ca1d8710c4f7ed9edb88cef53290fd10fd8ba7eb3',
    ('StocF-1465', 'classical'):
        '34cdd10ec019abb839d391f674b1d35cb0d25f80c065a3de0e72d41e16349141',
    ('StocF-1465', 'default'):
        '33915bbe1b1dd4a0362af5316f4fbde4cd621e639ab1ccc7b635e5f6302d309b',
    ('StocF-1465', 'direct'):
        '4844eb5118a0c279c6e6d9fc8363496602989ce612dcdcd3ab744765280463a9',
    ('StocF-1465', 'fused'):
        '9fbc41d09718406f81a022542de840ce710831c46c1fa7b75eb479a5ba94fcc3',
    ('apache2', 'classical'):
        '8dc6cea2fae6b93e46c4f55bd1db6c35a0774512fc73e16310387bc18346d847',
    ('apache2', 'default'):
        'd1b9164a4451fbe10f80836be63ed47bf69a82f0bd43710bb960e0873cd5e6ce',
    ('apache2', 'direct'):
        'e6f980e131ceeb6d0ef7f506c890d13318f93a2d4cd2cb6747ef3175f89fd15e',
    ('apache2', 'fused'):
        '91d518f98e0413043c41af69f3192624a1cb6359d8c11217b7a967dbc6bb8e82',
    ('atmosmodd', 'classical'):
        '13eb5954c7434a5c8f50b3cb6956835d26f1006d6341e23a4fc3cc1e3bd71cdb',
    ('atmosmodd', 'default'):
        '8f3e9b15b0fc4bf6bcaa3dae2cd3ec1e806693d5c23b531a45b1c7c73939d3fe',
    ('atmosmodd', 'direct'):
        '976b07948b8d4dab842d95e9c72012ceb2fef8266352ef137c52bfbac20284cd',
    ('atmosmodd', 'fused'):
        '0665fb0b85b19f47d99b693602d41197314481d30806686b5eb03a9e7029d03b',
    ('atmosmodj', 'classical'):
        'e4781513d1e484f8520c643374e56441f790a2acfabb07b2548d724bad44a187',
    ('atmosmodj', 'default'):
        '9987b3bb67503c9b327148c62046d99e30174aad0266b51c70612e244aeda8f5',
    ('atmosmodj', 'direct'):
        'a896c808f3880b8093010f67cb62541262e1d2361ab66e92cb401b312e3071b8',
    ('atmosmodj', 'fused'):
        '9467d10a9f4c62aa7bea195eda9aa039e8b3c540e33b53642e33575c597cf7dd',
    ('atmosmodl', 'classical'):
        'bbb5c7f33b40471b6673e625da4cdfb76df36997b8648f0252b9bcdeb6cd5426',
    ('atmosmodl', 'default'):
        '95aa4036fb3e42502196f2240de2d20a8b36e442c577106b23ddf678b97008fb',
    ('atmosmodl', 'direct'):
        '00a3a1547ebbaff592876af37cd376d4d0f3dfa27675cb51ee61a746eeeb1763',
    ('atmosmodl', 'fused'):
        'c73c9d3a8ff9a1ebf7ab49a9821b8c00218f817cb7717ac30334a735054191d7',
    ('ecology2', 'classical'):
        '074eb6eb86f99e1473761638f976def17b38e68c5866bb7a0ece217ac2e87060',
    ('ecology2', 'default'):
        '5d4d7af88caaf4cd6b824f034ac3c1d176ea3cce7d63809ea43cd72ffb055e55',
    ('ecology2', 'direct'):
        '718d4d8e69e71eccd29010084b6e4fe82fdfeb21b6272df885889e29827edeeb',
    ('ecology2', 'fused'):
        'c71d6b221b6fe530e77bb94aa443b780c08805ffdf9a6992c29bb70b14791bcb',
    ('lap2d_2000', 'classical'):
        'db47dc0117f8fd405b6205e6d1ef76153a3bac5897dce5e07c23bc7b66434cbb',
    ('lap2d_2000', 'default'):
        'c4eea48f976bc0ba0db61d814131da8221678dd777fd20b5f4d22de0f002dbbc',
    ('lap2d_2000', 'direct'):
        '8a1fa3c7077305268472a3a1e67e20280c59c96bb2c9d565371ef3d2d6ab6df9',
    ('lap2d_2000', 'fused'):
        '225784e914ea7414d29a4a306032deef9d623eb273335947c1dbc1f47c60c2fc',
    ('lap3d_128', 'classical'):
        'cbbb72c82057c90fa9e40a3a6b9e27af484896db161ee309baeb2f5177a8afd2',
    ('lap3d_128', 'default'):
        'b8d9ffb7e43d298d7653f0cbe2357a76463e39b21bfe9e14f32ebd7d0218fc5a',
    ('lap3d_128', 'direct'):
        '4650585eb8d8e3fbc5e7434fbbfd0bbf2a0241cf5a98345b06039116c1906836',
    ('lap3d_128', 'fused'):
        '0e08dfc5d1543d235d08fdf0f148570f6f37e89b59336a243ca62073831b4fed',
    ('parabolic_fem', 'classical'):
        '5d0ce8d6293985fc10137f9834f7c2d1e900dd52bf669a6635ed68a6771aac36',
    ('parabolic_fem', 'default'):
        '5c4c116e90c131330850159208746113aa148e5e9e1ff1f226ac378b776d240a',
    ('parabolic_fem', 'direct'):
        'a0850705cdd5a3531f228a71e44006527f04fa9a98150bdebd9a8e2914a65290',
    ('parabolic_fem', 'fused'):
        'fdb9d824fcdb1c297a1840b9b51e3eb6ee4f3d90a14715c90ef653e0f61d8d0d',
    ('thermal2', 'classical'):
        '108c7f6052200c99db630452c3a98e490ae656fc12681e69da043345014247f8',
    ('thermal2', 'default'):
        'cf1b03aa07f6f9a0ff46462a8b91578debb2e2d9ecf8d4228e94107fee7e2b62',
    ('thermal2', 'direct'):
        'ab3662c02a4051927ec70c8e527850140f7f6a969d3e95434c6db8f10fb4ae48',
    ('thermal2', 'fused'):
        '100ed4ad63d9a3b8be971feeb165791e86f849b15433e090bc653497c201669a',
    ('tmt_sym', 'classical'):
        '0d91cd7dc5ffd01edc07b3839f7e4eb2d9b575f8eea116d2e09239271cf43e62',
    ('tmt_sym', 'default'):
        '7179d867c276ee0766d01ce63e457ec2b799f234ff9625910bc55f409fe07870',
    ('tmt_sym', 'direct'):
        '3e5cfdaef6d0461a31ef4588605914579fa7b627bc337ef82fa2a190273ed946',
    ('tmt_sym', 'fused'):
        '96cb72628de6ddccc1f0b2004cfdcb432aead1fca21aabacbbcfa8e4112c1c42',
    ('lap3d27g', 'classical'):
        'c82a539e9be4003f409758d5efbeabdd50d026d857e6e69b65acc462514f9044',
    ('lap3d27g', 'default'):
        'a30ca61af6e81f3c1bbd49898d12269450b3bfb827fed08a45944f5dd29a949c',
    ('lap3d27g', 'direct'):
        'c82261a3b8e41b98751ba154ae6519bec13b9e21713386ad535249b2038d1c1a',
    ('lap3d27g', 'fused'):
        'c114e2689ad8896f745b0cc1ad601344777f469e2292a40f527733658327726f',
}


PLAN_DIGESTS = {
    ('2cubes_sphere', 'classical'):
        'a43af0a041e0040e048bf4fb8f6a5a1f51fe258cc65dd3ad59cbfd9c305b5b66',
    ('2cubes_sphere', 'default'):
        '638dd0754a273daa33b18fe9097b299a5cb48e326b221d33a31f85f1170ef4e1',
    ('2cubes_sphere', 'direct'):
        'bd83f6c16109b4b56e0b47e874b4b75b81d8e167a8fd46c44d736b5c43f7d046',
    ('2cubes_sphere', 'fused'):
        'a5078197b4704d1e685ff13d069f9f5e85feb574aef1b4d44bd9a211df7e2e44',
    ('G2_circuit', 'classical'):
        'd7d85edb79c691d72c580d38aaf5f8b200cb6bb66fe84dcdee3ed63191e30a8c',
    ('G2_circuit', 'default'):
        'ff94e0b668b8569bae797ffbe3ea4fd9909f3a5b269cb49513bd56ffc72c2002',
    ('G2_circuit', 'direct'):
        '4a198a0dee82e12f4bb1522ea82aecea12712fcb84aedc12173f2d285f97e856',
    ('G2_circuit', 'fused'):
        'cff787325197c66f6d70e8d6b5a8fb10872322ebb222f1db2c2cccef69e3d0db',
    ('G3_circuit', 'classical'):
        'ee58789e083a962d321cc17a22f7b93b4676420e035a5a534bd7acc7287f04e6',
    ('G3_circuit', 'default'):
        'd4b99c15896a6e99c4571d14c6b3533a4d3c7d6059870de41f3f94793c7928a6',
    ('G3_circuit', 'direct'):
        'd3a0ca9aadabf4bb05323a903529563bc89969efebed1e5d68cf4e72e86d3f1b',
    ('G3_circuit', 'fused'):
        'd229a6b98ebe8f4ee9f6809fb4058a2fbea41a7d2b945182bc00e81056533549',
    ('StocF-1465', 'classical'):
        '32587ae47c4b62909615d9f15dab9e0a88d3398c0818bb5523d66118723e8a1c',
    ('StocF-1465', 'default'):
        '702a96aa1ff4f106b6b406e5f087ee36c5e8fc919b79f3203bd2cbea2eefdf2f',
    ('StocF-1465', 'direct'):
        '738252b5c7dbc35146b6765e3c6730a8730f4cd8c11e9e004f27f7a725c81b4b',
    ('StocF-1465', 'fused'):
        '576f1f73dee514dcd1f7305c2c209c55ebf1362ddbec5a2e920d39dc795cf0bb',
    ('apache2', 'classical'):
        'f22e22fa86fb3b2521a7c511c67ff57cb821507df49d11fc6b633998d0b4a11d',
    ('apache2', 'default'):
        'ded0829a72cc99a755577fa5813ea0ced1d58c7eb5f0f7c2b16c399d419ec32c',
    ('apache2', 'direct'):
        'bb7ba1b18c88bd4e87a768aadf57534f22196eac3b1020ff7ea5027e19003fa0',
    ('apache2', 'fused'):
        '9a022e8b8e56b2259c4734abba3f7a64877c5183c4ed88f9ccc02c4947b8b7f6',
    ('atmosmodd', 'classical'):
        '5338e17ecd51266de2d28576b37cb5ea4ae4e58c071ba72ec3be6263a0d3bb9a',
    ('atmosmodd', 'default'):
        '925f73a559d5a5c2f69cf4802c156517c6174a9f3c76c1c080bf765d0149785c',
    ('atmosmodd', 'direct'):
        '7dd6c49853c18533678b3e96d1a6c28781fee602ad7ac900a3fb45c82fcd0e5a',
    ('atmosmodd', 'fused'):
        'ba07fccccdfdd8775993e43724a8470690589ae8e2c80f88f29d89aa3dd43263',
    ('atmosmodj', 'classical'):
        '7330e4c2cf7cc16a76079a255289e5db54fbe31e374780c2b17562679bfaeb21',
    ('atmosmodj', 'default'):
        'ce74691c45dde87ded9f3acfd7dedb6aaf2ab49144d1e8e1eafa1545438cd3d4',
    ('atmosmodj', 'direct'):
        '604ee7a65ff248269e6abc297b7c965325a2d72a66220d9646f27d204a06ea20',
    ('atmosmodj', 'fused'):
        'd504d3b0d63a748f889c9160e134bf4a28261d4176d77bd655491a6e985a6968',
    ('atmosmodl', 'classical'):
        'ddcbaa4f3b1b7d31e5eaed116736c33a4ff8416477e52dda35dcde7e09ca3a09',
    ('atmosmodl', 'default'):
        '3703336df97c4cb67ff8a70666021f11d233a9305e7084ecdf1f7432745661a0',
    ('atmosmodl', 'direct'):
        'bd5d80585d5efa706e6f3120e9750d728586400220c9de2ed7af42e2a4816c93',
    ('atmosmodl', 'fused'):
        '79603a8a6157e08f6583d0e04b614567a1be95ddc9412ee0faf210ff05694ffa',
    ('ecology2', 'classical'):
        'c5bf306f81184c2078fcda5490b7cd216046160eea6ca8e38b2f05225e8009e4',
    ('ecology2', 'default'):
        '250983f5b6d623d38ba22fa8d64f3187db4d5b89b64e182740f9661749bb15fe',
    ('ecology2', 'direct'):
        'c0af988e993d0034e3df886d9265322c639747573db06668b03b4d2d13469da0',
    ('ecology2', 'fused'):
        '9544115206c0da0a208e388b97c5b66284f036e1c1cd579b75a0ef941d4dbe8e',
    ('lap2d_2000', 'classical'):
        'e40a3a82ddf2c6ae7807dedb60615fa9ce39e152b2fffa8dfa2a8dc14ced7fc4',
    ('lap2d_2000', 'default'):
        'cf5434e25cb7e82fdc81606a9791adecffd6226d6515cb7c8495b96962e52a26',
    ('lap2d_2000', 'direct'):
        '9e6b278a2c0bd94f01021e50548d79835f0a8b703cd8142287079288d9e6f368',
    ('lap2d_2000', 'fused'):
        'c93a02ef6001d87b08bd15eb2899f0cc4161549e9a331db6822dce4347f661bf',
    ('lap3d_128', 'classical'):
        'fb6e829c4a4bc70e058bc7b87b59eb5486917b60c0617a575046bceb43f12bce',
    ('lap3d_128', 'default'):
        'b496f346197776d5807d2ef9671060cffa194c106e93a4a42bf08bc7f3dc68f2',
    ('lap3d_128', 'direct'):
        '8cb3bf69d793c7c73f44ffeb467ed0164cbcef85147c7cab90d930a4cea62fd3',
    ('lap3d_128', 'fused'):
        '06446f6fd5f21f43652d79639160084a74d1fc0346ea2ef01945994004e14b34',
    ('parabolic_fem', 'classical'):
        'ad9dd1e31e76d79d3b2f0166318c50370301ec0fe7525fd8fa85937abf3655d8',
    ('parabolic_fem', 'default'):
        '48e07a56450b2b5dcfc6ea71b68d53a3c8fe0de73a92b6e3be87fa71501ee786',
    ('parabolic_fem', 'direct'):
        '173b28cfa5ae27b53111051025dc906d32263f146a5fa586fd82da5010e67717',
    ('parabolic_fem', 'fused'):
        '6fccd72dfc5ad0db32ebad1eac6a3bdb595b031258f690c024d1db427773a8ee',
    ('thermal2', 'classical'):
        '183916d416d0708dc311e82ee67f24ec7a2f4644e7e5c99cd64b584729869a7d',
    ('thermal2', 'default'):
        'cdc23ac35bb6975085836ec05621923e3e48586198c475c726a44ca1d1446e49',
    ('thermal2', 'direct'):
        '1d1d4bce5f0f3e1bb784f33c80b26d10f7aaab93d078e94f6de3dcab3a903ca4',
    ('thermal2', 'fused'):
        'b158a09194a1ed5e5c14d68ccdb14305391a2f9ca114011e84920c85780c834c',
    ('tmt_sym', 'classical'):
        '76dab8f27d93bf9423e04ee99d96491886db74019028610f5a89f396b6a47415',
    ('tmt_sym', 'default'):
        '91b69c2c174281adf218665d249a261812123d0612a5b2879c432b33a2e68427',
    ('tmt_sym', 'direct'):
        '875f51045d73420ad1bbcf46abbd2db85dfe8df6ad46636b561606f4e9954c5b',
    ('tmt_sym', 'fused'):
        '2a924bc4cac7d5ea73ed7979055afcae567b189af52d38b9e7252d8769027942',
    ('lap3d27g', 'classical'):
        'ee4ad20de02905686c77d2c5800fbcf80bcf2f4087ce5aeea0f3bc715925d2ca',
    ('lap3d27g', 'default'):
        '5a3886d79e7f80737dd7e28c96aaf9a97a506f9aa718d739bbbb7c768da89751',
    ('lap3d27g', 'direct'):
        '6198bfe9725c9989597671813364384472d81c12f5ef7aba0ad0f34d7fcc3950',
    ('lap3d27g', 'fused'):
        '60bc8422dd88243b6fe66f7c4c864975d4c014b47d745e46d91a9ae7c1a1e405',
}


_CACHE: dict[tuple[str, str], tuple[str, str]] = {}


def _digests(name: str, config_name: str) -> tuple[str, str]:
    key = (name, config_name)
    if key not in _CACHE:
        _CACHE[key] = setup_digests(name, config_name)
    return _CACHE[key]


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("name", MATRICES)
def test_setup_is_bit_identical(name, config_name):
    assert _digests(name, config_name)[0] == DIGESTS[(name, config_name)]


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("name", MATRICES)
def test_setup_plan_is_bit_identical(name, config_name):
    assert _digests(name, config_name)[1] == PLAN_DIGESTS[(name, config_name)]


if __name__ == "__main__":
    tables = {"DIGESTS": {}, "PLAN_DIGESTS": {}}
    for name in MATRICES:
        for config_name in sorted(CONFIGS):
            numerics, plan = setup_digests(name, config_name)
            tables["DIGESTS"][(name, config_name)] = numerics
            tables["PLAN_DIGESTS"][(name, config_name)] = plan
    for table, digests in tables.items():
        print(f"{table} = {{")
        for key, digest in digests.items():
            print(f"    {key!r}:")
            print(f"        {digest!r},")
        print("}")
