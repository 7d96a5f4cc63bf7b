"""tools/outputs.py: every graph builder's output over seeded instances,
pinned by its sha256, so a change to a builder's internals that moves a
single byte of what the CLI would print fails here."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("outputs", ROOT / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(outputs)

PINNED = {  # move one only in a change that declares that builder's output changed
    "canonical_form/based": "6b4a02892908de3cab5856fc3fd10d513645a3c3c485107462645db8c8b2675e",
    "canonical_form/unbased": "3ea57d46400f829120d6a9e7cba678900b04df29d3c78dc32298cb8587fa5911",
    "core": "d08de386e9dac2c8a7425565964bec0fb93cf042ed08831fbb590deb51f21b71",
    "fold/lifo": "ae646b7ee6916f31b84182ea07793dbd9c442cff0a5f158b8dc7875b8aae5c89",
    "fold/seeded": "ae646b7ee6916f31b84182ea07793dbd9c442cff0a5f158b8dc7875b8aae5c89",
    "fiber_product": "3547a4ec858a37ff3c10384e76e67d0daf48915c54dad7807e875d37a02e5145",
    "component_containing": "4fbbff58bd379d19427a538cf397b4250416d38dfb2ff55b7a71d5948f7219f7",
    "stallings_graph": "67b1c3ede635b8f78f8940278c9eef85bf417a1446ac65567ccc452df477423f",
    "conjugate": "8cb36be2459bc283c17a887dd84a60507a92d0d781305f8a70423cdd5ae58e9b",
    "intersect": "7c9c801a1a283a146612c0525652cb8bf5c9c9ad96aea4b52c382ad1032468ed",
}


def test_builder_outputs_are_pinned():
    assert outputs.digests() == PINNED


def test_main_prints_one_line_per_builder(capsys):
    outputs.main(["--count", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[1] for line in lines] == list(outputs.BUILDERS)
    assert all(len(line.split("  ")[0]) == 64 for line in lines)
