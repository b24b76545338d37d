"""Outputs pinned bit for bit: sha256 digests of zero traces, local
structure, Lewis discs and the zeros CSV.

The re(z^2) trace and the zeros CSV moved by <= 8.4e-15 when bisection
switched to array evaluation, whose z^2 differs from Python's complex
power in the last bits; the Lewis discs moved when candidate centers
switched from traced zero curves to a batched sign-change pass, and again
(by <= 1.5e-14 relative in empirical_C0, same radii) when the pick began
to compare scores to 12 significant digits, so that discs tying in exact
arithmetic no longer part by rounding.  Their scores are also pinned as
numbers, from before the first switch.  When scalars began to run through
the array program and circle maxima to be refined by a zoom in place of
golden section, the discs kept their centers and radii and their values
moved by <= 4.2e-15 relative, and the re(exp(z)+z^2) trace, whose Newton
steps run on scalars, moved by <= 1.2e-15."""

import hashlib
import json

import pytest

from harmonic_range.cli import main
from harmonic_range.expressions import parse_map
from harmonic_range.lewis import lewis_disc_search
from harmonic_range.zeros import Rect, local_structure, trace_zero_set

TRACES = {
    "re(z)": ("u=re(z); v=im(z)", Rect(-1, 1, -1, 1),
        "f11aa6cc2a376dfa28dccc9e409b6fe68274d326be24292ed8f01304e4f7c9b3"),
    "re(z^2)": ("u=re(z^2); v=im(z^2)", Rect(-1, 1, -1, 1),
        "d2e33807685dfcc798333f2e7ac9bb5002bcd5e0df4a1b65e001214320a8c29d"),
    "im(exp(z))": ("u=im(exp(z)); v=re(exp(z))", Rect(-2, 2, -4, 4),
        "654b06ee003a49b89e4cce26613a39b685ae9f8d70d2817a0cc3fd5948fe16ad"),
    "re(z^3-z)": ("u=re(z^3-z); v=im(z^3-z)", Rect(-2, 2, -2, 2),
        "62e01b1057d499ceef73ea23531951f911a5bc8b772bc6638865bf27b4bd7c21"),
    "re(exp(z)+z^2)": ("u=re(exp(z)+z^2); v=im(exp(z)+z^2)", Rect(-2, 2, -2, 2),
        "ff3688ca8028392fadd7f9d98b41a04cadb4b4cb4caf7705742268bb8fb41984"),
}

LOCAL = {
    ("re", 1): "e9638250aed0e47a46ec79cd98a1f9d581c66e13e251e91e608e895183dea43e",
    ("re", 2): "858eb32b28ee1daa69cfd36b12e5555712ba1fc84968c7df80e252569245e631",
    ("re", 3): "455acbd7a9a231312a97a602a89fcbfe04de2ad9d95e9aac4abcd42e811d2ca7",
    ("re", 4): "fea0bd790187a670667fda8f309d7f880dedef67396c1965f9d349136373e5dc",
    ("re", 5): "4c46ec6c61751c071b6f04b27e63d0c1f1a61234983c6344a221e9b702fe78ea",
    ("re", 6): "7337a23136c2fcfd58143298ee6e2c4eb808d7e5c3d3dddf0964353ed7834a50",
    ("im", 1): "2498ac6996abc47cbf8ea9af23a49ce95ab509dcfca48533afe03362c212e114",
    ("im", 2): "b5d40583a40cfa9d7446265819423e640e96c2a0cb057db4b257045ca742ee49",
    ("im", 3): "7bf5a8e42bc58e21af39413352cd20ba8458c0227b11f7e2b4e63c042c5114d5",
    ("im", 4): "b23e46763115d393f5023ec8827edb44ee7e22c2ba278bf1f3523b39f1acf49f",
    ("im", 5): "51353ba7ee068286a3588f4971d8f614b6b481f050ad7a14dd2b90ab090c79db",
    ("im", 6): "0d89a251227642971db2a66587a7ec4a609d3d5c6db2b247812ef526719a3b25",
}

DISCS = {
    8.0: "04135ae1c054d05727f347eb4b127e57e43a7c61c3526536b504a7ff75f86692",
    12.0: "dd353bfccfb732900ae275d6e0146b757c368263d91e17fd01a990bfae730640",
    20.0: "4ea4fa1a8198e61017d8998ce583522da25d7d16972917fb7b07d314dddfeb9a",
}

# empirical_C0 of the same searches with centers taken from traced curves
TRACED_CENTER_C0 = {
    8.0: 1.336355439959624,
    12.0: 1.3350371958233191,
    20.0: 1.3334074982792496,
}

ZEROS_CSV = "a5a828742f2b9ea05d65581cf6d47ad9c9f6bd41a6a2665c960c47505f7f8c2d"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_sha(doc) -> str:
    return _sha(json.dumps(doc, sort_keys=True).encode())


def trace_digest(src: str, box: Rect) -> str:
    curves = trace_zero_set(parse_map(src).u, box, 0.05)
    h = hashlib.sha256()
    for c in curves:
        h.update(str(c.source_id).encode())
        h.update(c.points.tobytes())
    return h.hexdigest()


def local_digest(part: str, n: int) -> str:
    u = parse_map(f"u={part}(z^{n}); v=im(z)").u
    return _json_sha(local_structure(u, 0.0))


def exp_disc(R: float) -> dict:
    u = parse_map("u=im(exp(z)); v=re(exp(z))").u
    return lewis_disc_search(u, R).to_dict()


def zeros_csv_digest(tmp_path) -> str:
    out = tmp_path / "zeros.csv"
    code = main(["zeros", "--map", "u=re(z^2); v=im(z^2)", "--box=-1,1,-1,1",
                 "--out", str(out)])
    assert code == 0
    return _sha(out.read_bytes())


@pytest.mark.parametrize("name", sorted(TRACES))
def test_trace_zero_set_golden(name):
    src, box, want = TRACES[name]
    assert trace_digest(src, box) == want


@pytest.mark.parametrize("key", sorted(LOCAL))
def test_local_structure_golden(key):
    part, n = key
    assert local_digest(part, n) == LOCAL[key]


@pytest.mark.parametrize("R", sorted(DISCS))
def test_lewis_disc_search_golden(R):
    disc = exp_disc(R)
    assert _json_sha(disc) == DISCS[R]
    # the batched centers may score a hair worse, never by more than 1e-3
    assert disc["empirical_C0"] <= TRACED_CENTER_C0[R] * (1.0 + 1e-3)


def test_zeros_csv_golden(tmp_path, capsys):
    assert zeros_csv_digest(tmp_path) == ZEROS_CSV
