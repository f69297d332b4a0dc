"""Byte-identity of command output.

Each case pins the sha256 of what one command writes to stdout at fixed
flags.  A change to the exact arithmetic, a float path, the report
layout or the 12-digit serialization moves a digest; a refactor that
keeps every number and byte keeps them all.
"""

import hashlib
import sys

import pytest

from circlekit import circle, expsums, integrals, series
from circlekit.cli import EXIT_OK, main

DIGESTS = {
    "verify --k 3 --x 100,1000,10000":
        "91503806c432ae5e1962720cef7a191666536b4ddce043eef76b25f42dcf2aa8",
    "verify --k 3 --x 4096,16384,65536 --method both":
        "cb78ec369a3a9cf4038f34d78390876bbe1d8cbbaa8206eea8142a840e95ce59",
    "verify --k 4 --x 4096,16384,65536 --method both --q-max 50":
        "84b8f35723d3697863daff1c71641398fd0c175c9fcef8b8cc3d2e98bc58c2fb",
    "verify --k 8 --x 4097,16385 --method both --q-max 50 --format csv":
        "9154a7a0ccc8cf3bbdf32fbfbc068fd9c8fc88fcfd16824de9e4df692298c516",
    "verify --k 3 --method conv --x 9969,100304,1000000":
        "ce606ac3a18710a28f9629978e8740e047e34c0d0cc32359566107df7c5d761c",
    "verify --k 5 --method conv --x 99999,100000":
        "ae479bb4c1403c818ef77aab986f39eb43bf1258922e7a1886b4e67a058b67d0",
    "series --k 3 --q-max 500":
        "fbd557acbd4d6c61ba952bf5b2869d36fc5b72216dda09c7fb1c98b039c59d34",
    "series --k 6 --q-max 5000":
        "773b7e9068091d65931ebcd8387c02c03b951b9535a7e908a9b12dc49d3188c3",
    "integral --k 3 --B 400 --grid 64":
        "1e0333999bab6165b5d68171b73477ff8d3eed3b7ea1c9ab65788e1b19f6297a",
    "integral --k 8 --B 400 --grid 64":
        "61eab2006ff0b340101928edf24deb6e12c08a348164d5a0197a0a43a2dee1f2",
    "integral --k 5 --which 2 --B 400":
        "b1ef7d49f2d8336757cf84a0ce8a31a97ea7490b6504c6dc63c8ca805de0f06e",
    "integral --k 4 --which 2 --B 50 --grid 128":
        "2c43f4b3e2073def696a8f83cbfdbfd81552166031107cbcc52f42b7c23430ff",
    "integral --k 3 --which 1 --B 50 --scan 40 --format csv":
        "bfce07e336f6ccd70d7847323062b46d56d94b80436001411145a87e5422128d",
    "integral --k 5 --which 1 --B 12 --scan 1000 --format csv":
        "731ea13338151fca98dd20512dced71f801f047176c1fe0aff1c298b601914c8",
    "diagnostics hua --k 3 --j 2 --y 2000":
        "6d14ceca1fb81b953fddbcc266445c7ac7a7aa8e22c9defd3aac69cdaa590498",
    # count 142,064,824, as a brute-force count over pairs of pair sums gives
    "diagnostics hua --k 3 --j 3 --y 40":
        "19fe5e2c80a48c74c21119368aee984b30c54da7e4b179256b3acd3c0a9f7da4",
    "diagnostics vk --k 4 --x 10000":
        "e5a4c42e5c59ab392c6b9aae3a10bf8e0761f4e1083cd669d91760d6bcb19651",
    "diagnostics vk --k 4 --x 10000 --format csv":
        "544cc7cd8011b9a0574d33f5f6fac74d2ff262e2a7df949a307a31fb7f0b2579",
    "diagnostics expansion --k 3 --x 10000":
        "893417bec681d15653745c7bbc158b997e329dec31f5a66d6ac080aa9eecfbf7",
    "diagnostics expansion --k 3 --x 10000 --format csv":
        "3b6a97cd302b38ebcbf2d82dd93dafd4c206a666789a1a69bc4e79e17ac331fa",
    "diagnostics expansion --k 5 --x 100000 --format csv":
        "f2bb18cef57401045d8257a27902fe28a625e5f38b1d8bca2810de163eaee780",
    "diagnostics minor --k 3 --x 1000000 --samples 2000 --seed 5":
        "5f1de1908b3552f27cfbe42439b0d43e71134194eb3d729384267a57982417aa",
    "diagnostics minor --k 3 --x 1000000 --samples 2000 --seed 5 --format csv":
        "146b994cf74d6144df0703a1a2c978dabcd2c8e192e37f5b8ee89cac9418535c",
    "diagnostics minor --k 8 --x 1000000 --samples 300 --seed 1 --format csv":
        "6e7515531b48b89bb1217f2a99d8ce9d3ab67e84108eb1b165aa5331c6a1c870",
    "diagnostics dirichlet --samples 2000 --tau 1000 --seed 3 --format csv":
        "36153706dfc8fea077a97580418244ad4601ad7d972c6077f67967d6ca130fe4",
    "sieve --n 1000000":
        "378418213a4c35dce599dc1e9a8866f61a68636183e60d2ddc9a78063813ff60",
    "delta --k 3..12":
        "547242bb1c16843fbdd03043a99792c3e8d800295a1f1d40db5e05b0f1eabe1e",
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_report_digest(capsys, monkeypatch, command):
    # the report embeds the work budget, so pin it to the default
    monkeypatch.delenv("CIRCLEKIT_BUDGET", raising=False)
    assert main(command.split()) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_commands_reach_no_scalar_evaluator(monkeypatch, command):
    # the one-value forms of the batch evaluators, which only the
    # benchmark's tracer names; every binding of them in the library raises here
    scalars = [integrals.unit_power_phase_integral, integrals.log_weighted_integral,
               expsums.complete_power_sum, series.local_density, integrals.j_value,
               circle.classify_arc, circle.dirichlet_approx, expsums.weyl_sum]

    def refuse(*args, **kwargs):
        raise AssertionError("a command reached a scalar evaluator")

    for name, module in list(sys.modules.items()):
        if name.startswith("circlekit"):
            for attr, value in list(vars(module).items()):
                if any(value is scalar for scalar in scalars):
                    monkeypatch.setattr(module, attr, refuse)
    monkeypatch.delenv("CIRCLEKIT_BUDGET", raising=False)
    assert main(command.split()) == EXIT_OK


@pytest.mark.parametrize("command", sorted(c for c in DIGESTS if c.startswith("verify")))
def test_verify_runs_no_fourier_sweep(monkeypatch, command):
    # verify takes J1 and J2 from the reduced volume; the sweep is integral's
    def refuse(*args, **kwargs):
        raise AssertionError("verify ran the Fourier sweep")

    monkeypatch.setattr(integrals, "_sweep", refuse)
    for name, module in list(sys.modules.items()):
        if name.startswith("circlekit") and hasattr(module, "j_values"):
            monkeypatch.setattr(module, "j_values", refuse)
    monkeypatch.delenv("CIRCLEKIT_BUDGET", raising=False)
    assert main(command.split()) == EXIT_OK
