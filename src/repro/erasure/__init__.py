"""Erasure-coding substrate built from scratch on NumPy.

Everything a Cloud-of-Clouds redundancy scheme needs:

- :mod:`repro.erasure.galois`       -- GF(2^8) arithmetic and linear algebra
                                       (the scalar reference oracle)
- :mod:`repro.erasure.gfkernel`     -- vectorised encode kernel + plan cache
- :mod:`repro.erasure.striping`     -- shard framing (split/join with padding)
- :mod:`repro.erasure.reed_solomon` -- systematic RS(k, m) over GF(2^8)
- :mod:`repro.erasure.raid5`        -- XOR parity (the paper's case study)
- :mod:`repro.erasure.fmsr`         -- functional MSR regenerating codes (NCCloud)
- :mod:`repro.erasure.codec`        -- common interface + registry

See ``docs/codecs.md`` for the field construction, generator derivations,
and the kernel design.
"""

from repro.erasure.codec import ErasureCodec, available_codecs, get_codec
from repro.erasure.fmsr import FMSRCode
from repro.erasure.gfkernel import gf_matmul_fast
from repro.erasure.raid5 import Raid5Code
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.erasure.replication import ReplicationCode

__all__ = [
    "ErasureCodec",
    "FMSRCode",
    "Raid5Code",
    "ReedSolomonCode",
    "ReplicationCode",
    "available_codecs",
    "get_codec",
    "gf_matmul_fast",
]
