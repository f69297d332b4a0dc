"""Byte-identity of command output.

Each case pins the sha256 of what one command writes to stdout at fixed
flags.  A change to the exact arithmetic, a float path, the report
layout or the 12-digit serialization moves a digest; a refactor that
keeps every number and byte keeps them all.  Three verify cases sit at
x = 2^m/4 and 2^m/4 + 1, where the power of two covering 4x + 2
doubles.
"""

import hashlib

import pytest

from circlekit.cli import EXIT_OK, main

DIGESTS = {
    "verify --k 3 --x 100,1000,10000":
        "c007663a1cdfe8f3ed4a035abde8a437901b05e1c46e9707bb02a962063da0e5",
    "verify --k 3 --x 4096,16384,65536 --method both":
        "0be1166b0c9ebda1f9d1a55562286c939351b595ce478e8d890304f08b58794e",
    "verify --k 4 --x 4096,16384,65536 --method both --q-max 50 --B 100":
        "5a1753f7bbf669ad0046db1b8ba5c97b1b08bf45422071083a7912e5bd4c2304",
    "verify --k 8 --x 4097,16385 --method both --q-max 50 --B 100 --format csv":
        "f8e1a52e38a56e04a6d25886ed00c5ed5b94b54a9cce50d208a2c12a9afd311e",
    "verify --k 3 --method conv --x 9969,100304,1000000":
        "c983f437711cf23767c5f51d746d49de789054ad7cc912e7f327aaa443a600b7",
    "verify --k 5 --method conv --x 99999,100000":
        "1ca699a398c636642179396ad46d669343f8623e71fc4bb74a71a5d0d6e1fc9d",
    "series --k 3 --q-max 500":
        "543d3a7b13436c9f0b89ac2ffceb4fdf1e6c9be4850596ff81f0cda9a26fb096",
    "series --k 6 --q-max 5000":
        "392a8d203fc00f22b1bfae53585174142cc105d2fb600496b7d5bc3094523d22",
    "integral --k 3 --B 400 --grid 64":
        "64cb73e5fff6fc0af67d9c388493f029f4c8f5fedf61dff08ff39458f3359d3e",
    "integral --k 8 --B 400 --grid 64":
        "98a8a82f08c349ec2d14690ea928e9de8f780cb60618fcb5fa38f5857a77f8b6",
    "integral --k 5 --which 2 --B 400":
        "a8358015d7de6994ebdd9d6488fefa76161f11678f26a947fb2f7caea1663168",
    "integral --k 4 --which 2 --B 50 --grid 128":
        "b6b6318f17e0bd1994ee0bf66b18a6a106560599b7ee498a8dd5c7515a0f5b94",
    "integral --k 3 --which 1 --B 50 --scan 40 --format csv":
        "e795355798f739d16a0f4236e27a3658aa584b9f5287edf13d09999ac9db0a7f",
    "diagnostics hua --k 3 --j 2 --y 2000":
        "6d14ceca1fb81b953fddbcc266445c7ac7a7aa8e22c9defd3aac69cdaa590498",
    "diagnostics vk --k 4 --x 10000":
        "e5a4c42e5c59ab392c6b9aae3a10bf8e0761f4e1083cd669d91760d6bcb19651",
    "diagnostics expansion --k 3 --x 10000":
        "c0e321661296046aa09800e71a1b23b43c87f00ee32abf388f2a7f1928283478",
    "diagnostics minor --k 3 --x 1000000 --samples 2000 --seed 5":
        "5f1de1908b3552f27cfbe42439b0d43e71134194eb3d729384267a57982417aa",
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
