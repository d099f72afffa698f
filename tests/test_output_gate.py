"""Output gate: every byte the CLI prints or writes, pinned.

Twelve invocations run in-process through `cli.main`, each into its own
directory. Each pins its exit status, its stdout and the sha256 of every
file it writes, so a change of any reported figure, verdict or file byte
fails here. The scheme runs at beta 5 and 200 exit 1: their Monte Carlo
estimates are under-sampled at the default 1000 runs, and the gate pins
those verdicts as they are. The 4000-step jarzynski drive and the 400-step
scheme drive pin the stepwise propagators far past the configs' 400 and 40
steps. The 8193-sample JSON export spans two full 4096-sample stream blocks
and a one-row block, and the one-sample constant drive is the smallest
run. The custom drive (`custom_drive.json`, beside this file) reads two
initial sectors, one of them doubly degenerate, and three final sectors, so
its pair table is not square.
"""

import hashlib
from pathlib import Path

import pytest

from meterwork import cli

TESTS = Path(__file__).resolve().parent
CONFIGS = TESTS.parent / "configs"

# argv (config names are resolved in configs/, schedule files in tests/)
# -> (exit status, stdout, {file: sha256})
GATE = {
    ("jarzynski", "--config", "configs/jarzynski_driven.cfg"): (
        0,
        (
            "scenario=driven-qubit mean=1.0003862938935153 target=1 se=0.0048312090374364198 [pass]\n"
        ),
        {
            "jarzynski_report.json": "7a37fb8ef280ec114e2ff3ccefd03afb265c10e446a80aa392f9b772d305d467",
            "work_samples.csv": "b1252d6eaa61d89c7c3fa8fc49fa39814da0239f9dcc4461ac684ddae6aac94d",
        },
    ),
    ("scheme", "--config", "configs/scheme_default.cfg"): (
        0,
        (
            "runs=10000 delta_f=0.40285102686286578 sigma_total=3\n"
            "ledger per run: experimenter=2, measured=-3, reader=1\n"
            "<W_total> - <W_drive> = 3 (target 3) [pass]\n"
            "original: mean=0.6859596206310522 target=0.66841166728987333 se=0.0084869813806572741 [pass]\n"
            "modified: mean=0.6859596206310522 target=0.66841166728987333 se=0.0084869813806572741 [pass]\n"
            "roundtrip stage (a): deviation=0 [pass]\n"
            "roundtrip stage (b): deviation=0 [pass]\n"
            "roundtrip stage (c): deviation=0 [pass]\n"
            "roundtrip stage (d): deviation=0 [pass]\n"
        ),
        {
            "roundtrip_report.json": "3401305941c5d35e04ea4c412f000f9f158b5b4ad6a1963d5d86bca324d0cbc1",
            "scheme_records.jsonl": "dc4c88862d51fdcf1a3182a5b104b5c291fe1d214069c8021109904c578e22f2",
            "scheme_report_modified.json": "cf2e58baa2deb866de1f330b0f393a7d6d1df2942eee38996fe42298ba1ba87f",
            "scheme_report_original.json": "dc8da6e56fbf2936d2dac933467866afa3a84c97f23d3a2e7011ae08acf23a2e",
            "scheme_summary.csv": "6eea8af1ed703a862098e90a64b9719ddd05b929dec67551b666858cdc1294c3",
            "scheme_summary.json": "b89bddfe07ce20cf009fe2e837380b995640cd616c07c0a946729feb51f3ec95",
        },
    ),
    ("relaxation", "--config", "configs/relaxation.cfg"): (
        0,
        (
            "description    rho(dt)                sigma(dt)\n"
            "direct         0                      inf\n"
            "statistical    0.36787944117144233    1\n"
            "poisson        0.36787944117144233    1\n"
        ),
        {
            "relaxation_direct.csv": "c338605bc461088afb23c5d6e3f0f38c9949154dc8fe0d25e562f6d2605b4824",
            "relaxation_poisson.csv": "cac138c34b9be5339892b171e06c870244387e9fbc76f3809d8b0df8868873e8",
            "relaxation_statistical.csv": "df82b8f5b145d4ccc90ed6e9f1cd07dfb048c23dd9554079c1c539a05c81f503",
            "relaxation_summary.json": "2d4969ef6f36d702544903580531f7b30651711bbae1f6ea28e624a58ef89064",
        },
    ),
    ("scheme", "--beta", "0.3", "--verify-appendix-b"): (
        0,
        (
            "runs=1000 delta_f=0.13843634232117691 sigma_total=3\n"
            "ledger per run: experimenter=2, measured=-3, reader=1\n"
            "<W_total> - <W_drive> = 10 (target 10) [pass]\n"
            "original: mean=0.95520850834361981 target=0.95931968931833911 se=0.0094836740980024335 [pass]\n"
            "modified: mean=0.95520850834361959 target=0.95931968931833911 se=0.0094836740980024335 [pass]\n"
            "roundtrip stage (a): deviation=0 [pass]\n"
            "roundtrip stage (b): deviation=0 [pass]\n"
            "roundtrip stage (c): deviation=0 [pass]\n"
            "roundtrip stage (d): deviation=0 [pass]\n"
        ),
        {
            "roundtrip_report.json": "c2cd9a28b5b05570546b9135763149e68f1bbb8f0de3cc5ae2e1bb0302d2e1a8",
            "scheme_records.jsonl": "c1d831cea4831782557a7c4526a4ca5d99110373a4c4bcae0ea9ca0667d302f8",
            "scheme_report_modified.json": "57841ce0503d6af17ddc9071e01cf575fe671e7f424cea37f97695dba4a12d03",
            "scheme_report_original.json": "5fbea1828b31805707bb27c58c992312d1a46b6232e35e4074ac008bc05f5c0b",
            "scheme_summary.csv": "52228fcab696eed33174270a8648beac16bf7372411c5d6f8414e6b420c64320",
            "scheme_summary.json": "9640db0db54d2da88c2da6f805a2fcaa3cb4e12b2bee8656b67a498c06ddd7d1",
        },
    ),
    ("scheme", "--beta", "5", "--verify-appendix-b"): (
        1,
        (
            "runs=1000 delta_f=0.73423113292133346 sigma_total=3\n"
            "ledger per run: experimenter=2, measured=-3, reader=1\n"
            "<W_total> - <W_drive> = 0.60000000000000053 (target 0.60000000000000009) [pass]\n"
            "original: mean=0.012529814370640376 target=0.025447044698194858 se=0.00034144051556623796 [FAIL]\n"
            "modified: mean=0.012529814370640388 target=0.025447044698194858 se=0.00034144051556623818 [FAIL]\n"
            "roundtrip stage (a): deviation=0 [pass]\n"
            "roundtrip stage (b): deviation=0 [pass]\n"
            "roundtrip stage (c): deviation=0 [pass]\n"
            "roundtrip stage (d): deviation=0 [pass]\n"
        ),
        {
            "roundtrip_report.json": "c2cd9a28b5b05570546b9135763149e68f1bbb8f0de3cc5ae2e1bb0302d2e1a8",
            "scheme_records.jsonl": "152f54f9832845760ad517c7687df85b8d0b71d49ab7cb596dc1b17c8bc9b89d",
            "scheme_report_modified.json": "cc3451a4b27ac7c20122e80f913633f08efd1b1ce0a46577b03912720b04b9ef",
            "scheme_report_original.json": "9d8f7d75e27b0bdd9af4b78e897d39b8dc048e2aeaa5af83e2a20e15dd995b9c",
            "scheme_summary.csv": "0c7f615e600ebf9c530d31d5b8c8376431771140791722775755d07553fc70bf",
            "scheme_summary.json": "21d01c7a42971f047bd9b76cdc2669c6c7a0308df69dd2ead66b1a601b14a720",
        },
    ),
    ("scheme", "--beta", "200", "--verify-appendix-b"): (
        1,
        (
            "runs=1000 delta_f=0.75 sigma_total=2\n"
            "ledger per run: experimenter=1, measured=-2, reader=1\n"
            "<W_total> - <W_drive> = 0.0099999999999997868 (target 0.01) [pass]\n"
            "original: mean=3.522972122823726e-66 target=7.1750959731644108e-66 se=1.1348660592146307e-67 [FAIL]\n"
            "modified: mean=3.522972122823726e-66 target=7.1750959731644108e-66 se=1.1348660592146307e-67 [FAIL]\n"
            "roundtrip stage (a): deviation=0 [pass]\n"
            "roundtrip stage (b): deviation=0 [pass]\n"
            "roundtrip stage (c): deviation=0 [pass]\n"
            "roundtrip stage (d): deviation=0 [pass]\n"
        ),
        {
            "roundtrip_report.json": "c2cd9a28b5b05570546b9135763149e68f1bbb8f0de3cc5ae2e1bb0302d2e1a8",
            "scheme_records.jsonl": "f0ff2b7fd2ca5188798b06a652f2c1d69628becae098addb5ddb3faa64aeddd1",
            "scheme_report_modified.json": "607702309ac1b155b618495aece549c8b7ce6a10ab52c35265737bee77d49f42",
            "scheme_report_original.json": "ccce6249dcc800b6a9bde916524c7350be5a9c5d8c8570003ce461cfa7192dbe",
            "scheme_summary.csv": "37e1ba18d9949fc971b864d0e57092e62190871a7ca6829082e951d520133d6d",
            "scheme_summary.json": "25460a3e77c7bb24e86fa92086d86864c49e0af5f24124ffb87b2a58ea637c08",
        },
    ),
    ("scheme", "--eigenstate-prep", "--verify-appendix-b"): (
        0,
        (
            "runs=1000 delta_f=-0 sigma_total=0\n"
            "ledger per run: experimenter=0, measured=0, reader=0\n"
            "<W_total> - <W_drive> = 0 (target 0) [pass]\n"
            "original: mean=1 target=1 se=0 [pass]\n"
            "modified: mean=1 target=1 se=0 [pass]\n"
            "roundtrip stage (a): deviation=0 [pass]\n"
            "roundtrip stage (b): deviation=0 [pass]\n"
            "roundtrip stage (c): deviation=0 [pass]\n"
            "roundtrip stage (d): deviation=0 [pass]\n"
        ),
        {
            "roundtrip_report.json": "c2cd9a28b5b05570546b9135763149e68f1bbb8f0de3cc5ae2e1bb0302d2e1a8",
            "scheme_records.jsonl": "dc943de43027240c89b6d4f6f580d7de07f762f46aacbec034cb6747d3b1c3cd",
            "scheme_report_modified.json": "2b43198c58fd89ada9f693c1797a812c79f0414cf6b31397ebe42053b744b144",
            "scheme_report_original.json": "4532ec9608dfbc427f41c94d0513750878151a126818f97f2d660f8a9719672a",
            "scheme_summary.csv": "375bb6b2f3fff5dc278ce38516546c582406a34f7e9c8097c014eef8469ef7af",
            "scheme_summary.json": "dba5d9c6e411921efc3a6b43bd85c612e0535cad1f796aa1b5d5d2096df00086",
        },
    ),
    ("jarzynski", "--config", "configs/jarzynski_driven.cfg", "--steps", "4000", "--samples", "20000"): (
        0,
        (
            "scenario=driven-qubit mean=1.0029160024160966 target=1 se=0.010860102999034933 [pass]\n"
        ),
        {
            "jarzynski_report.json": "57351df1f50f4ffa6f2677fcc94268f7b4cc725cc98c0602940d04a1c70ef7d4",
            "work_samples.csv": "699b32108c3a0ef52989e77a70f3f8842a941f1d82fa2984b10130996d96f3a1",
        },
    ),
    ("scheme", "--config", "configs/scheme_default.cfg", "--drive-steps", "400", "--samples", "2000"): (
        0,
        (
            "runs=2000 delta_f=0.40285102686286578 sigma_total=3\n"
            "ledger per run: experimenter=2, measured=-3, reader=1\n"
            "<W_total> - <W_drive> = 3 (target 3) [pass]\n"
            "original: mean=0.67026415950851892 target=0.66841166728987333 se=0.018369291447777627 [pass]\n"
            "modified: mean=0.67026415950851892 target=0.66841166728987333 se=0.018369291447777627 [pass]\n"
            "roundtrip stage (a): deviation=0 [pass]\n"
            "roundtrip stage (b): deviation=0 [pass]\n"
            "roundtrip stage (c): deviation=0 [pass]\n"
            "roundtrip stage (d): deviation=0 [pass]\n"
        ),
        {
            "roundtrip_report.json": "3401305941c5d35e04ea4c412f000f9f158b5b4ad6a1963d5d86bca324d0cbc1",
            "scheme_records.jsonl": "0b7c3691632f71030603a08dad87b3f2d259be1b26c926c6362df6e6306b4367",
            "scheme_report_modified.json": "dcf67d02a6249ce7f907dd29957da66cb558b7ae378ceb00b9a6c8bac60942d7",
            "scheme_report_original.json": "5332f980eb9bf6a77f5025936ded1f7590af9e495dcad7e9bcb1198245dfcaf4",
            "scheme_summary.csv": "c49c4e95a040626b9d2945fcc23635f246965ecf168ab3d36ee7f61750cceb80",
            "scheme_summary.json": "c8723f57012492dc10e000c9685e0756bc955bc0a5c191798885a6bc5ad728ce",
        },
    ),
    ("jarzynski", "--config", "configs/jarzynski_driven.cfg", "--format", "json", "--samples", "8193"): (
        0,
        (
            "scenario=driven-qubit mean=1.0064158710510769 target=1 se=0.017029941890411075 [pass]\n"
        ),
        {
            "jarzynski_report.json": "32431fac16ce1a27978725f9467a0f7d6f1dc2c26e3a3f73c04ae12a3b445792",
            "work_samples.json": "2a3db2fb4e575c95645378dcd2d9e68a45aba514e8cb1cd8ef73e0e8ae4343f5",
        },
    ),
    ("jarzynski", "--scenario", "constant", "--samples", "1"): (
        0,
        "scenario=constant mean=1 target=1 se=0 [pass]\n",
        {
            "jarzynski_report.json": "b9d93a880aa64332b7237fba753002e43f2bba5f0bb9e322a212a1878a4c5172",
            "work_samples.csv": "5c58dc080d976dd93970360dda70dc055affb795c8d0496964b3b11d3fcb9801",
        },
    ),
    ("jarzynski", "--scenario", "custom", "--schedule-file", "custom_drive.json", "--samples", "9000"): (
        0,
        (
            "scenario=custom mean=0.99752003644581622 target=0.99375222955831599 se=0.0055807035501716463 [pass]\n"
        ),
        {
            "jarzynski_report.json": "1909bba08bbbf36a420adf84f336e00265577b409f495d5dc16ca0da49a6694d",
            "work_samples.csv": "d339080ed31d83e9e9d87b355ed7d1725d5c1fd665cc5edc208c807a01cc2de4",
        },
    ),
}


@pytest.mark.parametrize("argv", list(GATE), ids=" ".join)
def test_invocation_output_is_pinned(tmp_path, capsys, argv):
    status, stdout, digests = GATE[argv]
    folder = {".cfg": CONFIGS, ".json": TESTS}
    args = [str(folder[Path(a).suffix] / Path(a).name) if Path(a).suffix in folder else a
            for a in argv]
    assert cli.main([*args, "--output", str(tmp_path)]) == status
    assert capsys.readouterr().out == stdout
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == digests
