"""Byte pins of CLI outputs: sha256 of stdout and the exit code, run in process.

A change that is meant to alter one of these outputs re-pins it here and
names it in CHANGES.md; any other change keeps every pin.
"""

import hashlib
import json

import pytest

from gk2genus import catalog, engine
from gk2genus.cli import main

PINS = {
    "spectrum --q 4 --n 5 --format csv": (0, "f6e0daa894e231d25d20a184445f700a5e7f78637d9ee7e8d51ff0d29cb1761a"),
    "spectrum --q 4 --n 5 --format json": (0, "a5539001f446f7c146048d6cf8bc5801bcfb7e56217fcb60664b6a6d0c59e722"),
    "spectrum --q 4 --n 7 --format csv": (0, "635be38c9f134c26b359b79456ae119e91622e6e921959aa1bda83812e05635f"),
    "spectrum --q 4 --n 7 --format json": (0, "52af8ebfd31c450e357129fe71a6fff3dccc277d812978e27d304cf4a9d72959"),
    "spectrum --q 5 --n 3 --format csv": (0, "74c3a5a03f9e207b2e74412656f8b0baedaaa6a12cc14601c321cbbc7c352dd2"),
    "spectrum --q 5 --n 3 --format json": (0, "c7a8899914d87269986f07eff004399fed9f40aa00ef2751ccc8276d8037e6a4"),
    "spectrum --q 5 --n 5 --format csv": (0, "57b79a7f3a4632d072f9001101f44532222d8e9aaedee691633980b92e114494"),
    "spectrum --q 5 --n 5 --format json": (0, "22867f529f46caa979810b0930cd9068b41f04d960ac5b2efe0359cf7914c382"),
    "spectrum --q 5 --n 7 --format csv": (0, "9b6602e24b00f0ea38af54c0faf0f6a0c4fe228aaa5a0674c550d9d3e13b0316"),
    "spectrum --q 5 --n 7 --format json": (0, "80c491f4fbf15cb3c888f32da4c06de0baef6b698a3c850c48848bdd33d8f435"),
    "spectrum --q 9 --n 7 --format csv": (0, "4c8f53fab233fe5a6dd3024ef396b0dc88f901a0c23af375484dc7c40cb2e8d1"),
    "spectrum --q 9 --n 7 --format json": (0, "774828b18d3e92ba255b1b302b9db02b68687064e3c66acb2dda3b874a5cdb15"),
    "spectrum --q 13 --n 5 --format csv": (0, "6a2248fb5750b755668dd067fbf0ffe1a3511c691a1becc7775378e5f97bffbf"),
    "spectrum --q 13 --n 5 --format json": (0, "4fcb98cf87d72fab701b4436f62d1dadf5264d74efd42d1a4969c6823d2c4256"),
    "spectrum --q 25 --n 3 --format csv": (0, "cd2e93865414f6e14063422019f0e7c2765266af9fa73138d138f95207a2f93a"),
    "spectrum --q 25 --n 3 --format json": (0, "c3bb8ec6365949a241783cea75db1f72d4d4deaa446052be5af4af64ff3bc217"),
    "spectrum --q 1048576 --n 3 --format csv": (0, "34b2881a188b9ef37fccc454b65b62bc527d72d8a138a6a1e6062888dcbfa043"),
    "spectrum --q 1048576 --n 3 --format json": (0, "0d71ebc31e16d243755a6f513bd43ad87ecc0aea16f1fbd1fbb20a007e8806b4"),
    "spectrum --q 1048576 --n 5 --format csv": (0, "989f6af43796f6670d21733ba212800542c02a2abab15e8f5fc25ecd68e224cb"),
    "spectrum --q 1048576 --n 5 --format json": (0, "2815708f957e4bc297eb8637ff5213f7a709c641ef50ee5bc85833c4af7dc479"),
    "spectrum --q 1048576 --n 7 --format csv": (0, "3a10e7f5e4243364704ec59a5001be10382be13ab7b2807c9c47f94b934e1292"),
    "spectrum --q 1048576 --n 7 --format json": (0, "500882cce3b8df206aca9c19331209d95d5921990c6f393774c5626afd74111b"),
    "table --format json": (1, "0b6719733c91573166aaf682cba948a9af806d8dac4dbcf9e2c299f7aa580157"),
    "table --format csv": (1, "5356605549f36c5b84e98d5ea9350eb56f3bedec71995f6ba8102efbb68bb0fe"),
    "table --format text": (1, "846b7a198d884ec3835704de741522626a943fd019423cd32d04a77bad5b0f38"),
    "catalog --q 4 --format json": (0, "ff49719f36004609695f444dd13c66dc1e79307d98e7866e6e6370b6e2dbd609"),
    "catalog --q 5 --format json": (0, "54b66dcd8ed7331e6c388fd1e758faf6dc49a723c1d914e0bb1926e7615ac98c"),
    "catalog --q 9 --format json": (0, "b8736afe1621ac0fbe9398401d23ed3e58b5610b5cb021916ecfe0050f2fa285"),
    "catalog --q 25 --format json": (0, "427627b2a288ac290f29c2cd4cc7189e80b4f061a8a6ad6c7d1de009223733ef"),
    "classify --q 9 --format json": (0, "bd7933a085373215d6d6753bdfb5c7d5626004f2492d96f6fc3cbbec43d1d3a4"),
    "verify --q 4 --format json": (0, "ee75cdff48cf719c8091d2cee17223527a07bb79f980b81ee1741947799b9493"),
    "verify --q 5 --format json": (0, "4d8b0146f52d4f6097adcb4e7c58976e983ff15b58e1bb25b3614bae9215f7d6"),
    "verify --q 9 --format json": (0, "0323a9ed1d57bad92617ffb78887d3464a2254b05fb956cbdb54be8ad0880af8"),
    # oracle spectra at the fields no golden row reaches; q = 17 is the only
    # pinned output that builds binary_octahedral
    "spectrum --q 2 --n 3 --format json": (0, "600431adf372960429bebcc565337dbc6324677d8e4ea21bad10fb62766ef4cf"),
    "spectrum --q 8 --n 3 --format json": (0, "d72f4d87d2ba0d3aad45750ce8b6007b1e081e2af294f6ef55f7fea9acff2dd8"),
    "spectrum --q 16 --n 3 --format json": (0, "331f5e0a92fc5a358f57222378757728da79432d75837e0fdd397327d20667bc"),
    "spectrum --q 17 --n 3 --format json": (0, "f08c56db1393345b3506f1c475b2aa85cad6de72af9c6f97c6f6b0a90696dc86"),
    # formula mode past the golden rows, and the rejection of a q past the explicit bound
    "spectrum --q 4096 --n 3 --format json": (0, "8b8ae44f7b2c8f734ea0925772a113eb030f1da2105bd77a257b0762e670615e"),
    "spectrum --q 2401 --n 3 --format json": (0, "a86839c104f2f87790af9acfc6488ba56c308657ec5bf48645b31ed2e7e5ebc5"),
    "spectrum --q 29 --n 5 --format json": (0, "01ce8647b9d68712a954c6058e15b66b9453c76c4d9d8c9753ba2aa71b87d4d9"),
    "spectrum --q 2401 --n 7 --format csv": (0, "f97591a86d17e385159472cdfefa4ddae7723bd275b075256d4df8bbe2a97e92"),
    "verify --q 1048576 --format json": (2, "f4ca3b0116181606421e9adf308800d16e593aa743ae614ec698ff656f76fd14"),
    # the text listing, with and without every record
    "spectrum --q 1048576 --n 5": (0, "6fc61518cf6128d110260aa3ad26e8d56326e5db4b409f47d4b3b806261f21bb"),
    "spectrum --q 5 --n 3 -v": (0, "f6d544b7b090922c63a46d22fe57cce7aced613152b07f1c0438873c68c64a18"),
    "spectrum --q 4 --n 5 -v": (0, "f26ab76a06f5adc00020e383359aeef019267b411d5b559e5245e5fb8441b2d4"),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(PINS))
def test_cli_output_matches_its_pin(command, capsys):
    code = main(command.split())
    assert (code, _sha(capsys.readouterr().out)) == PINS[command]


@pytest.fixture
def cold_caches(cold_engine):
    catalog.enumerate_instances.cache_clear()
    yield
    catalog.enumerate_instances.cache_clear()


def test_formula_mode_never_reaches_the_tame_enumeration(cold_caches, monkeypatch):
    # _a1_triples feeds only the tame diagonal and triangle-swap instances
    def tame_loop(n):
        raise AssertionError("enumerated tame instances at n=%d" % n)

    monkeypatch.setattr(catalog, "_a1_triples", tame_loop)
    assert _sha(engine.spectrum(2**20, 3).to_json()) == PINS[
        "spectrum --q 1048576 --n 3 --format json"][1]
    assert _sha(engine.spectrum(2401, 3).to_json()) == PINS[
        "spectrum --q 2401 --n 3 --format json"][1]
    rejection = json.dumps(engine.verify_all(2**20), sort_keys=True, indent=2) + "\n"
    assert _sha(rejection) == PINS["verify --q 1048576 --format json"][1]


def _no_record(*args):
    raise AssertionError("built a GenusRecord for %s" % (args[2:4],))


def test_formula_csv_builds_no_genus_record(cold_engine, monkeypatch):
    monkeypatch.setattr(engine, "GenusRecord", _no_record)
    for n in (3, 5, 7):
        assert _sha(engine.spectrum(2**20, n).to_csv()) == PINS[
            "spectrum --q 1048576 --n %d --format csv" % n][1]


def test_formula_text_builds_no_genus_record(cold_engine, monkeypatch, capsys):
    monkeypatch.setattr(engine, "GenusRecord", _no_record)
    command = "spectrum --q 1048576 --n 5"
    assert (main(command.split()), _sha(capsys.readouterr().out)) == PINS[command]
