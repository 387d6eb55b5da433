"""Golden outputs: every CLI product is byte-identical to a recorded digest.

The SHA-256 digests below were generated by the code of commit cacb704
(before the CLI's evaluation paths were merged into one evaluator).  Each
case runs `cli.main` in a fresh directory with relative paths, so the CSVs
and the gnuplot sidecars (which name their CSV) do not depend on where the
test runs.  A changed digest means a changed output byte.

Lyapunov-derived columns (`n_lyapunov*`, `rel_dev`, `rel_dev_formula`) are
the one exception: the solve's rounding may change them within a stated
tolerance.  For the cases in `golden_lyapunov.json` the digest is of the CSV
without those columns, and the columns are compared with the values that
commit b13c920 (a Kronecker solve) wrote, within LYAPUNOV_RTOL of each value.
"""

import hashlib
import json
import math
import pathlib
import re

import pytest

from cavcool import cli

BASE = dict(
    delta2p=66.666666666666667,
    delta3=0.5,
    kappa=100.0,
    kappa3=1.0,
    J=10.0,
    Omega_m=0.25,
    gamma=1e-5,
    gamma_sc=1.0335425562283847e-3,
)
CONFIGS = {
    "ok": BASE,
    "not_cooling": dict(BASE, delta2p=-60.0, Omega_m=0.01),
    "unstable": dict(BASE, delta2p=-50.0, J=0.0, Omega_m=6.0),
    "j0": dict(BASE, J=0.0),
}
POINT_SUBCOMMANDS = ("spectrum", "rates", "limit", "stability", "effective", "oracle")
FLAG_GRID = ["--axis1", "delta2p:-80:80:5:lin", "--axis2", "Omega_m:0.1:2:3:lin"]


def _cases():
    cases = {}
    for config in CONFIGS:
        for sub in POINT_SUBCOMMANDS:
            cases[f"{sub}-{config}"] = ([sub, "--config", f"{config}.cfg"], ("out.csv",))
    for sub in POINT_SUBCOMMANDS:
        cases[f"{sub}-ok-single"] = (
            [sub, "--config", "ok.cfg", "--single-cavity"], ("out.csv",)
        )
    for preset in sorted(cli.FIGURE_PRESETS):
        cases[f"figure-{preset}"] = (["figure", "--id", preset], ("out.csv", "out.gp"))
    sweeps = {
        "sweep-dual-preset": [
            "--axis1", "kappa:1:1000:9:log", "--axis2", "Omega_m:0.05:5:4:log",
            "--quantity", "n_f,n_lyapunov,stable,max_real_eig", "--dual", "--preset-coupling",
        ],
        "sweep-omega-sff": [
            "--axis1", "omega:-3:3:13:lin", "--quantity", "S_ff", "--dual",
        ],
        "sweep-all-quantities": [
            "--axis1", "omega:-2:2:3:lin", "--axis2", "kappa:10:1000:4:log",
            "--quantity", ",".join(cli.QUANTITIES), "--dual",
        ],
        "sweep-all-quantities-preset": [
            "--axis1", "kappa:1:1000:5:log", "--axis2", "omega:-1:1:2:lin",
            "--quantity", ",".join(cli.QUANTITIES), "--preset-coupling",
        ],
        "sweep-flags-nf-first": FLAG_GRID + ["--quantity", "n_f,n_lyapunov"],
        "sweep-flags-lyapunov-first": FLAG_GRID + ["--quantity", "n_lyapunov,n_f"],
    }
    for name, args in sweeps.items():
        cases[name] = (["sweep", "--config", "ok.cfg"] + args, ("out.csv",))
    return cases


CASES = _cases()

DIGESTS = {
    "effective-j0": {
        "out.csv": "db207ab6e60c724ca6ec51d0b4c83cd62fdfd24a3a0891cfa431ae2a6d911b30",
    },
    "effective-not_cooling": {
        "out.csv": "a6c64968c57442a26c8cb6a28ee9bf2ed1b4a83b826b0ff2e7de1081c4002065",
    },
    "effective-ok": {
        "out.csv": "285e4a2c66b8f6c54caf114a3a5a9fcd2b41d702c323183267ae849b7e5f6034",
    },
    "effective-ok-single": {
        "out.csv": "2826c45fc7e5e1df1c2e25c0e74ed471b4768d4ec08964cbf18fd1d27b48c6c9",
    },
    "effective-unstable": {
        "out.csv": "2826c45fc7e5e1df1c2e25c0e74ed471b4768d4ec08964cbf18fd1d27b48c6c9",
    },
    "figure-fig3a": {
        "out.csv": "74769346b9d061f35b8efe576b3ab79210eb3f58934d7e573e8089d054547e86",
        "out.gp": "d15633e033e5c435ee91b9fa7de3a35281085522d16e14a2b62729aa21b676a7",
    },
    "figure-fig3b": {
        "out.csv": "f82d6c300164ec94ec67b7f263708c15d369a8804fa563b7aa15cae172d736cd",
        "out.gp": "9a660fd3ceabd7d9bd59398b25c28f25796074cca531d7d39c322b5a1af469f7",
    },
    "figure-fig3c": {
        "out.csv": "b0e981e9fc29023fe9a7a154728fd534de1a9dc83107794bcb8dbab967266be7",
        "out.gp": "d54e7bb53f176847f65eeaf5c8611f0468f51cd457a23aaffc9afa3edf7170a6",
    },
    "figure-fig3d": {
        "out.csv": "608e84c3f9e758dd00093d2f3d1ecbcd13258a170f69216aeba6b79ab9d897ef",
        "out.gp": "f6d9988e3905b9a62b2df23753df4f8dcc5bc2572a12f92914526d5144c6689d",
    },
    "figure-fig3e": {
        "out.csv": "2a51dd3f9007c89a9273107b0d5f42b1ff6203c2136f5cf70a5d8ace2bbdabc8",
        "out.gp": "aec651346970d6abdb0559e6898673fce00301e5793776ca455eaf9b04ece14f",
    },
    "figure-fig3f": {
        "out.csv": "2a853b1e97b55204a5f78f10f249b7456e5b6e1a0ddbae9611af95452578e8df",
        "out.gp": "7789f12ee75af706ca863ae07d7658f86216a6543d6835c7a3372e34f3f2a037",
    },
    "figure-fig4a": {
        "out.csv": "d85bc4b3ab42a0e8e7458b4d55e18aaba93bc3a83d073d82a3f64ea9faa7cb20",
        "out.gp": "6c8d45dfcb0ccbd7410748f7796987efb5a1e1d985c56fea035db22c8ea67c99",
    },
    "figure-fig4b": {
        "out.csv": "a0a431108fb7f37a085baeff10fdf8a61c1a5801867c260acaa9c417037a6e59",
        "out.gp": "3ec424496e578bf6f9156719a220ed0c4ab78ee63283a7ae9cbcd08ff80ac9a3",
    },
    "figure-fig5a": {
        "out.csv": "6d485c74cd35da4b48329b182271966691e22b7201e75b9c9445b3a7d8b0e72d",
        "out.gp": "f050a247405a23ebbff526d2d54f9b09946257731e5ceb10f6a9fefb0c690d87",
    },
    "figure-fig5b": {
        "out.csv": "758c809d135e6d2a284e186cd2027feea172a2c3147d101eab8ad945ddc9c7df",
        "out.gp": "ef91cc510116dba543365f8fdf82d9e9f3dc94ca4cff291ff11269ca1563693e",
    },
    "figure-fig6a": {
        "out.csv": "ff01998cd2453c2f4b4bc905fb1ac505d6e8d14ac0f4c0f6cb5456221088a803",
        "out.gp": "4ab54395ec4c04a530867b087ae0537cf93d3a7fdc15be175fe118b8a7d50469",
    },
    "figure-fig6b": {
        "out.csv": "581581a98e9c84dd661cb2cef4a12f3255678defdc674f629b1955b09107a9da",
        "out.gp": "8bfa06651fff7b8fae3603d2def289686eb969927587c30f09c7a9abc2e90046",
    },
    "limit-j0": {
        "out.csv": "bcf1c24502e09835f8d0482db014784fdccad42bfacb73377cfa7a481d510480",
    },
    "limit-not_cooling": {
        "out.csv": "1f17d2e868658ff18cf02ed414cc6a30b72e11785186cbe9be327644a19e66fd",
    },
    "limit-ok": {
        "out.csv": "701b494116741a902f28c9992a2865bb310f08fbfcc2613c76154d6a7dbd80f4",
    },
    "limit-ok-single": {
        "out.csv": "ebedee9bbc522555a9c5f7b4fe314e85db62784c14848aa9acdb32ef6340e78b",
    },
    "limit-unstable": {
        "out.csv": "4f7629211b38e2d7484db628bdb9a821a6be9524d3c803d66b2a39b43950d38a",
    },
    "oracle-j0": {
        "out.csv": "d4c246f87ff2bcacf9bf0926cd206b6d5f5671b2787cab61a025caca9537717d",
    },
    "oracle-not_cooling": {
        "out.csv": "1c8e3a527cd80fb3cf89f84ff912670fa3aa619756c21cabf2674a6296e5f81e",
    },
    "oracle-ok": {
        "out.csv": "215bed0ff29c8ad7a0c8d889d0cba5e756219c0a395e9a61708463554f530e12",
    },
    "oracle-ok-single": {
        "out.csv": "d307665f43bab50eff4d90ed824018a098f910cab33326fe5f4063065b4b1936",
    },
    "oracle-unstable": {
        "out.csv": "e01bdbfeace100a96f7c39b5469c42c38db97930af45c76a29e27182665c97b4",
    },
    "rates-j0": {
        "out.csv": "6999d41b1a31a046dfd8ea840ed22c4257e6a50e626b3a484febc24435b39978",
    },
    "rates-not_cooling": {
        "out.csv": "59ddb6ec0b1a975f06d4a964a1917ddaea03f0fe95d7379423785571bcd13d7d",
    },
    "rates-ok": {
        "out.csv": "450dd3be25f39aa8b2d10e7031b1901d8c4fa1cfe7a7d1f124f089f3462a3796",
    },
    "rates-ok-single": {
        "out.csv": "9b2933fd6cadf3dc10356ba31c7e9ec0eafea21cd51f33c9e726a6f00ae50504",
    },
    "rates-unstable": {
        "out.csv": "e7458ed550f606f040e662a2425bd0a4829af65cdad3b41e6bd91c48635008a2",
    },
    "spectrum-j0": {
        "out.csv": "38517ebfe051e0593293d9388ccbaa8bc162b6fce157aa9cf0216091a8e367ab",
    },
    "spectrum-not_cooling": {
        "out.csv": "2bc216373ae70ef6aca8c7cdd159eb48377bf8f6c38b538f1efe1c085a41921f",
    },
    "spectrum-ok": {
        "out.csv": "e41223ddde0e65725fd627599f9a53aaf40868fa7dd3c9e875da1f7c39f3b2a1",
    },
    "spectrum-ok-single": {
        "out.csv": "2c30903f2cd045a85885dc07d8d14d01060a746a6713ac77093de111ad1dd88f",
    },
    "spectrum-unstable": {
        "out.csv": "9e4cabcc89f43f9331426a74e3b1affe0dec9372c5de98c4968a2b1eb0b77eaf",
    },
    "stability-j0": {
        "out.csv": "004e81cacd00e7b00c679d7804dc6b6ec99025041c1b3103ad19a270d06119cc",
    },
    "stability-not_cooling": {
        "out.csv": "42f23184621285aad26099060a7a7ddb904a3fdff1141c754ebe034c34f829f1",
    },
    "stability-ok": {
        "out.csv": "7f3ae75cdebf15652dc9e5c0265853bb5ef2b2efb8684745cc1964c27df24cd0",
    },
    "stability-ok-single": {
        "out.csv": "dcfc0f6daf81da0d5af8ab8b2ba1e255b648af282b4dac039f65a7bf6eab822c",
    },
    "stability-unstable": {
        "out.csv": "fd276682960c0d00bb3d33681570e84ff3cfc2958d2fd703b5addb1252fc168f",
    },
    "sweep-all-quantities": {
        "out.csv": "a973c9c9ddf9b43c5c7700ff72622b48e9a3593aafe6eb3e4fba1195e5647ce6",
    },
    "sweep-all-quantities-preset": {
        "out.csv": "7355ac113ef82ce33c5e77fb59be9a70e4328b74b6fb27b26a5e7da2e022634c",
    },
    "sweep-dual-preset": {
        "out.csv": "13f6cff9e23d517ab9e56e11c2dab2492b4d7d27c129558322ce895e3917a2f5",
    },
    "sweep-flags-lyapunov-first": {
        "out.csv": "0fcd8f5e5e8e109cfdac9e87106e13f49e89fc357bdba3a566081226aadc108b",
    },
    "sweep-flags-nf-first": {
        "out.csv": "dddcd89adfffeab65c51c1ed8d21827720d0558d60f1852bc9573da919ba6e92",
    },
    "sweep-omega-sff": {
        "out.csv": "a959ef37fa9acbcaef31449e6267cbac276b44263c46e2223a8d9a937a43ca15",
    },
}


LYAPUNOV_COLUMNS = json.loads((pathlib.Path(__file__).parent / "golden_lyapunov.json").read_text())
LYAPUNOV_COLUMN = re.compile(r"n_lyapunov.*|rel_dev|rel_dev_formula")
# Relative tolerances, about 10x the largest deviation of the symmetric
# 21-unknown solve from the recorded values (2.3e-15 for n_lyapunov, 8.2e-13
# for rel_dev, which divides a small difference of occupancies).
LYAPUNOV_RTOL = {"n_lyapunov": 2e-14, "rel_dev": 8e-12}


def _check_lyapunov_columns(case, text):
    """The CSV text without its Lyapunov-derived columns, after checking them."""
    rows = [line.split(",") for line in text.splitlines()]
    keep = [k for k, name in enumerate(rows[0]) if not LYAPUNOV_COLUMN.fullmatch(name)]
    columns = {name: [row[k] for row in rows[1:]] for k, name in enumerate(rows[0]) if k not in keep}
    assert columns.keys() == LYAPUNOV_COLUMNS[case].keys()
    for name, cells in columns.items():
        rtol = LYAPUNOV_RTOL["rel_dev" if name.startswith("rel_dev") else "n_lyapunov"]
        for i, (got, want) in enumerate(zip(cells, LYAPUNOV_COLUMNS[case][name], strict=True)):
            got, want = float(got), float(want)
            assert math.isnan(got) == math.isnan(want), (name, i, got, want)
            assert math.isnan(want) or abs(got - want) <= rtol * abs(want), (name, i, got, want)
    return "".join(",".join(row[k] for k in keep) + "\n" for row in rows)


def _run(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, values in CONFIGS.items():
        (tmp_path / f"{name}.cfg").write_text(
            "".join(f"{k} = {v!r}\n" for k, v in values.items())
        )
    argv, outputs = CASES[case]
    assert cli.main(argv + ["--out", "out.csv"]) == 0
    data = {out: (tmp_path / out).read_bytes() for out in outputs}
    if case in LYAPUNOV_COLUMNS:
        data["out.csv"] = _check_lyapunov_columns(case, data["out.csv"].decode()).encode()
    return {out: hashlib.sha256(content).hexdigest() for out, content in data.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digest(case, tmp_path, monkeypatch):
    assert _run(case, tmp_path, monkeypatch) == DIGESTS[case]


def _rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_flag_grid_has_a_row_both_not_cooling_and_unstable(tmp_path, monkeypatch):
    """The flag goes to whichever failing quantity comes later in --quantity."""
    _run("sweep-flags-nf-first", tmp_path, monkeypatch)
    nf_first = _rows(tmp_path / "out.csv")
    _run("sweep-flags-lyapunov-first", tmp_path, monkeypatch)
    lyapunov_first = _rows(tmp_path / "out.csv")
    both = [
        i for i, row in enumerate(nf_first)
        if math.isnan(float(row["n_f"])) and math.isnan(float(row["n_lyapunov"]))
    ]
    assert both
    for i in both:
        assert nf_first[i]["flag"] == "unstable"
        assert lyapunov_first[i]["flag"] == "not_cooling"
