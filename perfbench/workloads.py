"""The benchmark's workloads: the config each hands the CLI and the steps of
one closed-loop pass.

A pass is a fixed list of CLI invocations issued one after another by a
single client.  The config file is the only input the program receives; it
is generated here from the workload seed.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

#: Resolutions (M_omega, M_cavity, Nt) the verify-suite workload gives the
#: suite's refinement pair.  The shipped pair, (32,24,32) and (64,48,64),
#: takes about 89 s on a 2-core Xeon, more than one benchmark run may take.
#: This pair is 5/8 of it and is one where all six checks pass at the seed
#: commit; at (24,18,24) the F_sign energy identity misses its 10 % bound.
VERIFY_RESOLUTIONS = ((20, 16, 20), (40, 30, 40))

#: Kite-centre candidates, ±0.1 around (0.1, 0.05) in steps of 0.05.  Kept
#: as literal strings so the generated config never carries rounding noise.
KITE_X = ("0", "0.05", "0.1", "0.15", "0.2")
KITE_Y = ("-0.05", "0", "0.05", "0.1", "0.15")

#: Serial-reconstruct mask overlap at the seed commit, per kite centre
#: (reproduced by ``python3 perfbench/record_jaccard.py``).  A pass whose
#: summary reports less counts as a failed operation.
KITE_JACCARD = {
    ('0', '-0.05'): 0.79375,
    ('0', '0'): 0.8121212121212121,
    ('0', '0.05'): 0.79375,
    ('0', '0.1'): 0.7231270358306189,
    ('0', '0.15'): 0.6508474576271186,
    ('0.05', '-0.05'): 0.8067484662576687,
    ('0.05', '0'): 0.7959183673469388,
    ('0.05', '0.05'): 0.8067484662576687,
    ('0.05', '0.1'): 0.7006369426751592,
    ('0.05', '0.15'): 0.6632996632996633,
    ('0.1', '-0.05'): 0.7915407854984894,
    ('0.1', '0'): 0.8071216617210683,
    ('0.1', '0.05'): 0.7915407854984894,
    ('0.1', '0.1'): 0.6876971608832808,
    ('0.1', '0.15'): 0.6711864406779661,
    ('0.15', '-0.05'): 0.7794561933534743,
    ('0.15', '0'): 0.7988338192419825,
    ('0.15', '0.05'): 0.7794561933534743,
    ('0.15', '0.1'): 0.6981132075471698,
    ('0.15', '0.15'): 0.6847457627118644,
    ('0.2', '-0.05'): 0.7731343283582089,
    ('0.2', '0'): 0.7894736842105263,
    ('0.2', '0.05'): 0.7731343283582089,
    ('0.2', '0.1'): 0.7024539877300614,
    ('0.2', '0.15'): 0.6798679867986799,
}

CONCENTRIC_48_JACCARD = 0.8222222222222222

#: The acceptance gate's coarse concentric case, used by the self-test.
GATE_JACCARD = 0.5555555555555556

CONCENTRIC_48 = """\
omega_kind=circle
omega_params=0,0,1
cavity_kind=circle
cavity_params=0,0,0.35
M_omega=48
M_cavity=36
Nt=48
T=0.5
nx=21
ny=21
s_slices=1
"""

KITE_32 = """\
omega_kind=ellipse
omega_params=0,0,1.2,0.9
cavity_kind=kite
cavity_params={x},{y},0.3
M_omega=32
M_cavity=24
Nt=32
T=0.5
nx=41
ny=41
s_slices=2
"""

GATE = """\
omega_kind=circle
omega_params=0,0,1
cavity_kind=circle
cavity_params=0,0,0.35
M_omega=16
M_cavity=12
Nt=8
T=0.5
nx=9
ny=9
margin=0.2
threshold=0.2
"""


def kite_centre(seed: int) -> tuple[str, str]:
    rng = random.Random(seed)
    return rng.choice(KITE_X), rng.choice(KITE_Y)


def kite_config(seed: int) -> str:
    x, y = kite_centre(seed)
    return KITE_32.format(x=x, y=y)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: CLI steps of one pass, in order: simulate, reconstruct (one thread),
    #: reconstruct_threaded (all CPUs, into a copy of simulate's output), verify.
    steps: tuple[str, ...]
    #: Config text for a seed; None runs the CLI on its defaults.
    config: Callable[[int], str | None]
    #: Recorded serial-reconstruct jaccard for a seed; None when there is none.
    jaccard_floor: Callable[[int], float | None]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "concentric-48",
            "large dense operators on the on-grid probe path: STOP1 text write and "
            "read, eigh and the probe sweep dominate; geometry is small",
            ("simulate", "reconstruct"),
            lambda seed: CONCENTRIC_48,
            lambda seed: CONCENTRIC_48_JACCARD,
        ),
        Workload(
            "kite-32",
            "point-membership tests dominate and s is off the dt grid, so the "
            "on-grid probe shortcut is bypassed; STOP1 I/O and eigh are small",
            ("simulate", "reconstruct"),
            kite_config,
            lambda seed: KITE_JACCARD[kite_centre(seed)],
        ),
        Workload(
            "verify-suite",
            "no operator I/O: off-curve potentials, many small solves, all operator "
            "assemblies at two resolutions, eigh and single-point probes",
            ("verify",),
            lambda seed: None,
            lambda seed: None,
        ),
    )
}

#: Not a benchmark workload: kite-32 plus ``reconstruct --threads $(nproc)``
#: into a copy of simulate's output, whose spectrum.csv and indicator.csv
#: must match the serial run's byte for byte.  At the seed commit they do not
#: (see NOTES.md, "Known failure"), so this check fails; it is kept out of
#: the timed workloads, on which no operation may fail, until that is fixed.
KITE_32_THREADED = Workload(
    "kite-32-threaded",
    "kite-32 with the probe thread pool running its 14 chunks concurrently",
    ("simulate", "reconstruct", "reconstruct_threaded"),
    kite_config,
    lambda seed: KITE_JACCARD[kite_centre(seed)],
)

#: Not a benchmark workload: the self-test's tiny pipeline.
SELFTEST = Workload(
    "gate-16",
    "harness self-test",
    ("simulate", "reconstruct", "reconstruct_threaded"),
    lambda seed: GATE,
    lambda seed: GATE_JACCARD,
)
