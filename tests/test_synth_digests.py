"""The files ``synth`` writes at seed 7 under the default config, pinned by
sha256: the Zeek, sensor and device writers must keep every byte."""

import hashlib

from iotsqlbench.cli import main

SEED_7_SHA256 = {
    "run-synth.json": "e69523302b947ee09a84aa18badf2d1e9965738399d849644898c23defef7026",
    "synth/co2.csv": "4163a4599410d249ed509d499334269d30ffb8013871e23c9533003893723f0c",
    "synth/conn.log.tsv": "5bcf4ba147f0548ad7a5a3ca0898f4e86c56a43a87776649bd8fe3f2a81ff805",
    "synth/devices.csv": "d41771118cf78e54e991d077f4368812481d4a839ad12ee755d6085c1c6d479e",
    "synth/dns.log.tsv": "8aed85fe0e3ea5b33ed5f167463f23a321f4c71c4b7547034992e2f4362a6814",
    "synth/files.log.tsv": "77905dfcd0d368aecb8893db47f06b749834ccca80c3bc3860d5d9ad82c7e170",
    "synth/http.log.tsv": "c182f65ba22b6ee9d018e05709eb110b4275f87f69676f4cf005b890026c97b7",
    "synth/humidity.csv": "f3462afe105e9bcbdc0eddcf513546e6d2dd3bcaebca62183580393c4728d36d",
    "synth/luminosity.csv": "0d11ac7e4ac0a4b5bc2b91d437290cd5ce4556e626bc6861731250261c35018a",
    "synth/motion.csv": "241d2f9c5b9787a7019caefe2c60417b772b4b7059f46abee7a2fcc7cecacae3",
    "synth/ntp.log.tsv": "fb9c9eed326416983e63a01162b75992d42087caded6fbee0dc2d4a90ef6cb5a",
    "synth/schema.txt": "46a3d555d14ac415c7e79416b86cc10e02a33f5b830e06756aaa509faa5bd442",
    "synth/temperature.csv": "7e6c1b6def2e589d0a55c3a2bb84eac9ace1e75831fe593629ec4cf48bb64791",
    "synth/weird.log.tsv": "b6cb4f224af3fdf8e386c4b65bfa6c47a28936b29f1c5c129440b58156d8452c",
}


def test_synth_seed_7_files_are_byte_identical(tmp_path):
    assert main(["--seed", "7", "--out", str(tmp_path), "synth"]) == 0
    got = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*")) if path.is_file()
    }
    assert got == SEED_7_SHA256
