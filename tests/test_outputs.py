"""tools/outputs.py: every graph builder's output over seeded instances,
build_gamma_w's complexes, decompose's sigma_w and orbit cycles, the main
check's reports, what each README CLI example and each --help prints, and
what each demo prints, pinned by its sha256, so a change to a
builder's internals that moves a single byte of what the CLI or a demo
would print fails here."""

import importlib.util
import random
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
    "SubgroupGraph": "51804c34290c2e0b465c6912721e3d6ce6529168c58868202919a055e79d00d4",
}

DEMO_PINNED = {  # each demo's stdout
    "demos/collapsing_complexes.py":
        "f4e918cf6dc0e3ce328b1c1057035d5045e049eb7e7594caa400feed578a9e78",
    "demos/counting_cycles.py":
        "2313f651a245dfe6798aa903b92f32508eead7dbb3ac9d6e991e9edd765ba044",
    "demos/subgroup_graphs.py":
        "5f082f55da6d8d7a8b518b63c10083f1f4560629afdef4c13b74049206e24d24",
}

GAMMA_PINNED = {  # build_gamma_w's complexes as `complex gamma-w` prints them
    "build_gamma_w": "9a25d5f5ec874f36dd08f88031cebe3764716db3147a228b19c890f0d43f03f4",
}

INDEX_PINNED = {  # each builder's index as built lazily from the edges
    "index/canonical_form/based": "6c2a8d89ead9013f7dbe05932906e4f6c054cbaa314cdf1a61a9de602a115e66",
    "index/canonical_form/unbased":
        "b9651df087f74d641699a1dc068cd9ba739e3e45bdc13f7e5af2707a012ba292",
    "index/core": "29bbc177c9db069199c77982833019f5bff51bddf05fdbcc927af154a26c6ef8",
    "index/fold/lifo": "9b8a77eefb1fe52e5215ee79c092cb4d5e216d01a1bffd39a2e9208a7186cd39",
    "index/fold/seeded": "9b8a77eefb1fe52e5215ee79c092cb4d5e216d01a1bffd39a2e9208a7186cd39",
    "index/fiber_product": "4c8bf63dfba8f9e51d1fc867625e99590ae03359801944bcef7e7b59c3c244f0",
    "index/component_containing":
        "4d0f6893ff699fa63021022366c6778b98b32d664f8f49510feb493b3ac6a18c",
    "index/stallings_graph": "45de6788c8b1beedbc4747c9d79fa925401502cba9361b84cd95ad5ef7aa0fdf",
    "index/conjugate": "43e126fc0313254b3f716aac427171fbf23e17eea4b231abcc2c031be51b7da7",
    "index/intersect": "12087cfae4d262a3e9a2430684c71cdcdf74f074147c2419c5c131df4ba67f93",
    "index/SubgroupGraph": "45bb2d3d60ad998bdf429fb260db214120cbb687bc843cc29562f5c83d22e837",
}

DECOMPOSE_PINNED = {  # sigma_w's items in the order filled, and the orbit cycles
    "decompose/automaton": "7214c2f753b933625178b4d37731c9ff7dd712f97e75a3ab95b51f76f2c5b0cb",
    "decompose/stallings_graph":
        "7d896df05cb4b04d0e8a397580493902cae8d56ef6020d57f2d25ef4daa664bb",
    "decompose/fold": "b06cdec4f5b49c3b355fa633593451b19cd3d3ddb1722774e5c5ac529fdf5e21",
}

REPORT_PINNED = {  # the main report's six attributes, Betti side read after the check
    "report/check_main_inequality":
        "1bc1cfa91cc573991492d9d436926a1964fc65c93b4c383cc237a4fd78e44ee6",
}

CLI_PINNED = {  # exit code, stdout and stderr; move one only in a change that declares it
    "wordcycles words normalize BaabA":
        "3afaf6ef5d47290b667cf731d5e81172a1b1a757aa95c650c02ae8dcd07cbaf9",
    "wordcycles graph validate g.json":
        "9f2cac9b1a94d4aea5bad72fca5d04fa8785cf68cdf631293efb76f31914870d",
    "wordcycles graph betti g.json":
        "a959a62b0acf86d1b70c6f0716781364015d3418d43974d20e5901aebe90b04e",
    "wordcycles graph fold g.json":
        "31689a8170ccd20db884de5d9cbaf61a967376a0690dd7d21301e23d97a2f58e",
    "wordcycles graph fiber g1.json g2.json --dot":
        "f84ee263c5a2e478e95b969244e1101dcf45fc5d52276e2d461fabe74f92d798",
    "wordcycles wcycles count g.json -w abAB":
        "a4a03b15462dcfce0af70c14a6969171f84b97299a55bebdbaa0620674edecc0",
    "wordcycles wcycles decompose g.json -w abAB":
        "62848a7ccaa107b797223b02f0460726cbfdf6509707d12043cca0dfb81def72",
    "wordcycles complex gamma-w g.json -w abAB":
        "c70150913fb442db2eb44c70ca619d909e81cc686dabbb9abdfb7c0d1e6310ff",
    "wordcycles complex collapse x.json":
        "d9c2af1c3020fcbf5686c6e3b3ff53abb3e5b541f5d1e235ee4078b3f3e8a8b1",
    "wordcycles complex npi g.json -w abAB --attach 0:1":
        "ee14ae5befe45b0e80e1ec059d3a3d48e268595a1971ddcdbc2fff999004b4ce",
    "wordcycles complex staggered p.json":
        "1e515c045a0da211bc856b602d4de32c873069c2f7c2223d1d01dd60cecb5f99",
    "wordcycles subgroup build s.json":
        "23caf7b85a4b71c0ec0cf448d998ffa0e70bf6383b02ce94427cf1a647b304db",
    "wordcycles subgroup rank s.json":
        "4f5080de47e94e5e1618f08c25bc2b0f66e29c92140b9f81dc6d48c67e1391a2",
    "wordcycles subgroup intersect s1.json s2.json":
        "0bb005e0a339e157cd170b22a6a156763127d65826471ea3277f0e1a9930ef4c",
    "wordcycles subgroup conjugates s.json -w a":
        "8115d01a1b55d8c3c76cf468be226489f7cc7a512fb668874413c962ee2671fa",
    "wordcycles subgroup shnc s1.json s2.json":
        "8df0bd790e148620d8e5bca007c5480c1cb4a1473be360d7a561e2356d3ae67c",
    "wordcycles verify main --seed 7 --trials 1000":
        "74dba0b27494f6cc619378b9d1be131624500f0ba33870e809582c8aecfe29fe",
    # the --help of the command and of each group and command, 80 columns wide
    "wordcycles --help":
        "4e33d75420f7388451eafda06b05f3030912741fc3fa49e70f59489a2fd07f1f",
    "wordcycles complex --help":
        "7f6dba3bb0d63563242e43ab37788b2227e85353df87d7540ca70341bc38c82b",
    "wordcycles complex collapse --help":
        "5afc8508f1c4f4ba1595226a204c86151a7a6bc9c6f87b27e457f744036d8267",
    "wordcycles complex gamma-w --help":
        "817e14d48bd7a8213e989e4383db2d22ba0c5ba24ba4912c2be6133f77d8d992",
    "wordcycles complex npi --help":
        "48aa1eb866cd5d1312542436cf845538a220f4c8510dc5e93505a1ddbc9acea9",
    "wordcycles complex staggered --help":
        "d4a54dd81867a3ef96e81e021da9a2164fadd4ebb9f23401e032e9664b9a4378",
    "wordcycles graph --help":
        "9a707e1910a9393ec23dd5a854442e145efc4b5fc0cfd4273989cd06bed3bd44",
    "wordcycles graph betti --help":
        "8f638682fcb3ae70d33b9d7ce3414349d77edb37715a9b5d49d292c1cb7621ea",
    "wordcycles graph canon --help":
        "a51d5ec1cd961d7caa5a2a790d0e53442af0ac0ea036b03647b4e67895b0b26e",
    "wordcycles graph core --help":
        "f46b8a85c0d4e5238a8f60518c32b7fc261b035156aaf54894d2b766063aebe9",
    "wordcycles graph fiber --help":
        "950923768f739ca4bface1d0c91bde41323e668a215c8bc260e9c3f7d921f79b",
    "wordcycles graph fold --help":
        "176f33411133b8bd1460b9acd8c5af7d014dd3dab24f88bb73579059ff505a7c",
    "wordcycles graph validate --help":
        "2df45cf649db6e5e64d13be33dfaab6de2e668449796ad893c1db9583e429a4c",
    "wordcycles subgroup --help":
        "3ed0883b09b5163df55989ec223765d96ef4a8d429f9e9b9991d481a47346823",
    "wordcycles subgroup build --help":
        "b23317c86f1a71ccbb35609cd325c1b3d08d3e2ddd743fd71b6609ac9979efaa",
    "wordcycles subgroup conjugates --help":
        "40909e4b54fb01bc5632ea9250630d48be0cd0b151c32dd901ffa7b5587f29e0",
    "wordcycles subgroup intersect --help":
        "5142760e6d2b4761890a0b5edb97f9f4207c56c6f61fbce0f824b3b086bc2156",
    "wordcycles subgroup rank --help":
        "55ce9064a6ed7d69d092654825ae2e6b26b80f77ffb7ba56026568ed7c93db1d",
    "wordcycles subgroup shnc --help":
        "e238cae32d96f62c76d068f320c6983bfb2a82bebfae4095c26f4605054d3c45",
    "wordcycles verify --help":
        "03a9bcca648cc79929ea41a88f3861a83e811603f7cd039665795f12eca35847",
    "wordcycles wcycles --help":
        "b138a746c3c0210a970c2df58ea280b11bd6c17de0407eacac4250eeea164221",
    "wordcycles wcycles count --help":
        "732d9f8c6d8f306ffef43fa7dff8d70b517edb7cfd87a73897ed6f9d26425e2f",
    "wordcycles wcycles decompose --help":
        "6bf8ba2b0f8e41bb9e3701039c0a4af71b19feec24fbb886eca895af7348dc54",
    "wordcycles words --help":
        "15dbcbb508b22314e738a694f92357b716278f2cb59c75b6473c8f34ddbfc779",
    "wordcycles words normalize --help":
        "f29533570b30d3a815bc149e6e5bfb1b5c6ad16f5e9b705283fca44904c1c700",
}


def test_builder_outputs_are_pinned():
    assert outputs.digests() == PINNED


def test_gamma_w_outputs_are_pinned():
    assert outputs.gamma_digests() == GAMMA_PINNED


def test_builder_indexes_are_pinned():
    assert outputs.index_digests() == INDEX_PINNED


def test_decompositions_are_pinned():
    assert outputs.decompose_digests() == DECOMPOSE_PINNED


def test_main_reports_are_pinned():
    assert outputs.report_digests() == REPORT_PINNED


def test_main_reports_cover_both_branches():
    # the pinned draws hold classless reports, decided without the Betti
    # side, and reports with a class
    reports = [outputs.main_report(random.Random(i)) for i in range(outputs.COUNT)]
    assert 0 < sum(r.total_classes > 0 for r in reports) < len(reports)


def test_main_prints_one_line_per_builder(capsys):
    outputs.main(["--count", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[1] for line in lines] == [
        *outputs.BUILDERS, "build_gamma_w", *(f"index/{name}" for name in outputs.BUILDERS),
        *outputs.DECOMPOSED, *outputs.REPORTS,
        *outputs.cli_examples(), *outputs.cli_helps(),
        *(f"demos/{p.name}" for p in sorted((ROOT / "demos").glob("*.py")))]
    assert all(len(line.split("  ")[0]) == 64 for line in lines)


def test_cli_outputs_are_pinned():
    assert outputs.cli_digests() == CLI_PINNED


def test_demo_outputs_are_pinned():
    assert outputs.demo_digests() == DEMO_PINNED


def test_help_lines_cover_every_group_and_command():
    # the command itself, its 5 groups and their 18 commands, and verify
    helps = outputs.cli_helps()
    assert len(helps) == 25 and helps[0] == "wordcycles --help"
    assert "wordcycles graph fold --help" in helps and "wordcycles verify --help" in helps


def test_every_readme_example_has_its_inputs():
    # the 17 example lines of README's CLI section, each on an input file
    assert len(outputs.cli_examples()) == 17
    named = {a for e in outputs.cli_examples() for a in e.split() if a.endswith(".json")}
    assert named == set(outputs.cli_inputs())
