import hashlib
import itertools

import pytest

from tritforge.errors import DomainError, UnsupportedCombinationError
from tritforge.generate import (
    Cascade,
    Completeness,
    GateKind,
    Pattern,
    PatternKind,
    Style,
    StyleSpec,
    gen_gate,
    gen_pattern,
    gen_rca,
    gen_testbench,
    gen_tfa,
    gen_tha,
    pattern_from_text,
    pattern_to_text,
)
from tritforge.netlist import (
    DOMAIN_BINARY,
    DOMAIN_HALFPAIR,
    DOMAIN_TERNARY,
    parse,
    serialize,
    validate,
)
from tritforge.solver import decoded_truth, division_counts
from tritforge.trits import (
    Encoding,
    Level,
    full_add_complete,
    full_add_partial,
)


def all_specs():
    for style in Style:
        for cascade in Cascade:
            yield StyleSpec(style, Completeness.COMPLETE, cascade=cascade)
            for enc in (Encoding.HALF_VDD_HIGH, Encoding.FULL_VDD_HIGH):
                yield StyleSpec(style, Completeness.PARTIAL,
                                carry_encoding=enc, cascade=cascade)


def test_spec_space_has_24_variants():
    assert len(list(all_specs())) == 24


@pytest.mark.parametrize("spec", list(all_specs()),
                         ids=lambda s: s.style.value + "-" +
                         s.completeness.value + "-" + s.carry_encoding.value +
                         "-" + s.cascade.value)
def test_full_adder_truth(spec):
    n = gen_tfa(spec)
    assert n.output_names == ("sum", "carry")
    oracle = (full_add_complete if spec.completeness is Completeness.COMPLETE
              else full_add_partial)
    truth = decoded_truth(n)
    cins = range(3) if spec.completeness is Completeness.COMPLETE else range(2)
    for a, b, c in itertools.product(range(3), range(3), cins):
        carry, total = oracle(a, b, c)
        assert truth[(a, b, c)] == (total, carry), (spec, a, b, c)
    assert validate(n) == []


def test_style_spec_rejects_bad_combinations():
    with pytest.raises(UnsupportedCombinationError):
        StyleSpec(Style.NTPT, Completeness.PARTIAL,
                  carry_encoding=Encoding.STANDARD)
    with pytest.raises(UnsupportedCombinationError):
        StyleSpec(Style.NTPT, Completeness.COMPLETE,
                  carry_encoding=Encoding.FULL_VDD_HIGH)


@pytest.mark.parametrize("style", list(Style))
def test_half_adder_truth(style):
    truth = decoded_truth(gen_tha(style))
    for a in range(3):
        for b in range(3):
            assert truth[(a, b)] == ((a + b) % 3, (a + b) // 3)


def test_half_adder_rejects_standard_carry():
    with pytest.raises(UnsupportedCombinationError):
        gen_tha(Style.MUX_PTTG, carry_encoding=Encoding.STANDARD)


GATE_TRUTHS = {
    GateKind.NTI: {(0,): (2,), (1,): (0,), (2,): (0,)},
    GateKind.PTI: {(0,): (2,), (1,): (2,), (2,): (0,)},
    GateKind.STI: {(0,): (2,), (1,): (1,), (2,): (0,)},
    GateKind.BINARY_INVERTER: {(0,): (1,), (1,): (0,)},
    GateKind.TERNARY_DECODER: {
        (0,): (1, 0, 0), (1,): (0, 1, 0), (2,): (0, 0, 1)},
    GateKind.TERNARY_BUFFER: {(0,): (0,), (1,): (1,), (2,): (2,)},
}


@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_truths(kind):
    n = gen_gate(kind)
    assert decoded_truth(n) == GATE_TRUTHS[kind]
    assert validate(n) == []


def test_testbench_preserves_behaviour():
    dut = gen_tfa(StyleSpec(Style.TERNARY_CMOS, Completeness.PARTIAL))
    tb = gen_testbench(dut)
    assert tb.inputs == dut.inputs
    assert tb.outputs == dut.outputs
    assert decoded_truth(tb) == decoded_truth(dut)
    assert validate(tb) == []
    # the wrapper adds two input buffers per input and four loads per output
    assert len(tb.devices) > len(dut.devices)


def test_testbench_moves_input_loads_to_the_buffered_nets():
    # the DUT now reads each input through its buffer, so the input's load
    # moves to the buffered net; an output keeps its own
    dut = parse(".input a ternary\n.output y\n"
                "m mp p hvt g=a s=VDD d=y\nm mn n hvt g=a s=y d=GND\n"
                "C c0 y 1e-15\nC c1 a 2e-15\n.end\n")
    assert gen_testbench(dut).loads == (("a.buf", 2e-15), ("y", 1e-15))


def test_rca_requires_partial_vdd_carries():
    with pytest.raises(UnsupportedCombinationError):
        gen_rca(4, StyleSpec(Style.NTPT, Completeness.COMPLETE))
    with pytest.raises(UnsupportedCombinationError):
        gen_rca(4, StyleSpec(Style.NTPT, Completeness.PARTIAL,
                             carry_encoding=Encoding.HALF_VDD_HIGH))
    with pytest.raises(DomainError):
        gen_rca(0, StyleSpec(Style.NTPT, Completeness.PARTIAL,
                             carry_encoding=Encoding.FULL_VDD_HIGH))


def test_rca_two_digit_truth():
    spec = StyleSpec(Style.TERNARY_CMOS, Completeness.PARTIAL,
                     carry_encoding=Encoding.FULL_VDD_HIGH)
    n = gen_rca(2, spec)
    assert n.input_names == ("a0", "a1", "b0", "b1", "cin")
    assert n.output_names == ("s0", "s1", "cout")
    truth = decoded_truth(n)
    for a0, a1, b0, b1, cin in itertools.product(
            range(3), range(3), range(3), range(3), range(2)):
        a = a0 + 3 * a1
        b = b0 + 3 * b1
        total = a + b + cin
        want = (total % 3, total // 3 % 3, total // 9)
        assert truth[(a0, a1, b0, b1, cin)] == want
    # ripple carries run rail-to-rail: no division events on any carry net
    assert sum(division_counts(n, "cout")) == 0


def test_pattern_static_enumerates_product():
    domains = [("a", DOMAIN_TERNARY), ("c", DOMAIN_HALFPAIR)]
    p = gen_pattern(domains, PatternKind.STATIC_STATES)
    assert p.signals == ("a", "c")
    assert len(p.rows) == 6
    assert len(set(p.rows)) == 6


@pytest.mark.parametrize("domains,states", [
    ([("a", DOMAIN_TERNARY), ("b", DOMAIN_TERNARY),
      ("cin", DOMAIN_HALFPAIR)], 18),
    ([("a", DOMAIN_TERNARY), ("b", DOMAIN_TERNARY),
      ("cin", DOMAIN_TERNARY)], 27),
])
def test_pattern_complete_covers_every_ordered_pair(domains, states):
    p = gen_pattern(domains, PatternKind.COMPLETE_TRANSITIONS)
    assert p.transitions == states * (states - 1)
    pairs = set(zip(p.rows, p.rows[1:]))
    assert len(pairs) == p.transitions  # each ordered pair exactly once
    assert p.rows[0] == p.rows[-1]  # closed circuit


def test_pattern_complete_is_deterministic():
    domains = [("a", DOMAIN_TERNARY)]
    assert gen_pattern(domains, PatternKind.COMPLETE_TRANSITIONS) == \
        gen_pattern(domains, PatternKind.COMPLETE_TRANSITIONS)


def test_pattern_text_roundtrip():
    domains = [("a", DOMAIN_TERNARY), ("cin", DOMAIN_BINARY)]
    p = gen_pattern(domains, PatternKind.COMPLETE_TRANSITIONS)
    text = pattern_to_text(p, domains)
    back = pattern_from_text(text, domains)
    assert back.signals == p.signals
    assert back.rows == p.rows


def test_pattern_text_errors():
    domains = [("a", DOMAIN_TERNARY)]
    with pytest.raises(DomainError):
        pattern_from_text("0\n1\n", domains)  # rows before header
    with pytest.raises(DomainError):
        pattern_from_text(".signals a\n0 1\n", domains)
    with pytest.raises(DomainError):
        pattern_from_text(".signals bogus\n", domains)
    with pytest.raises(DomainError):
        pattern_from_text("# only a comment\n", domains)


def test_pattern_text_refuses_a_duplicate_signal():
    # two columns for one input would leave the first unread
    domains = [("a", DOMAIN_TERNARY), ("b", DOMAIN_TERNARY)]
    with pytest.raises(DomainError, match=r"line 2: duplicate signal 'a'"):
        pattern_from_text("# walk\n.signals a b a\n0 1 2\n", domains)


def test_pattern_binary_encoding_in_text():
    # a binary-domain '1' sits at the full supply, not the half level
    domains = [("cin", DOMAIN_BINARY)]
    p = Pattern(("cin",), ((Level.VDD,),), PatternKind.CUSTOM)
    assert pattern_to_text(p, domains).splitlines()[1] == "1"
    assert pattern_from_text(".signals cin\n1\n", domains).rows == \
        ((Level.VDD,),)


# SHA-256 of serialize() for every generator output, recorded before the
# circuit primitives moved into synth.Builder: device ids, net names and
# device order must not drift.
GOLDEN_DIGESTS = {
    "gate nti": "394f5c684164c796bedc3a4daffb7829e33e5bd2e1d3c773373834290385606b",
    "gate pti": "2f48e9acec8c5ae800b949f6de215e25a6757a73fd267d1f85a6c80d2d9f63af",
    "gate sti": "70aa7b98ac00ffbbbbb0d15bd2f72862be477778e22f62d9030e80c2ff117658",
    "gate bininv": "9b17450a0e6b7e0764a10d01f0dee058ad6910da76997086660cbf6ebf5c5fe7",
    "gate decoder": "c8ca2a7133b15174fae63fc32ce97d95d995205be7d633d81ef89ca21eabfbe2",
    "gate buffer": "35ad81dee0fc631980259c69d24a9d409bb0bd21eabe3b83c89a29bbed9f114a",
    "tfa ternary-cmos complete halfpair direct": "41e5393d0e764961489d0051ebf9584d153eaddbfc07487a9deb36b400fab0d4",
    "tfa ternary-cmos partial halfpair direct": "a4f8e1aaa7e9a9ff35a011ad80112cc9e6aaac0db6038fb5d6ae062b047cf136",
    "tfa ternary-cmos partial binary direct": "2120cae8355b64af87ddcd5998c39101b8df45510ec53258fe880cc630ff0a96",
    "tfa ternary-cmos complete halfpair two-tha": "b4b00b8b3d1f7dedaf760d626aee947cf26c6c7cae3e959562e3feac26711af3",
    "tfa ternary-cmos partial halfpair two-tha": "fce21340fde92c36d770632a10e2a7d310721b9de340f23c0ab8fcb3f95ee9b0",
    "tfa ternary-cmos partial binary two-tha": "8d452e171969d815470bfe70eeca8a9016e518cb919e4c77510f7b49b7bc4176",
    "tfa ntpt complete halfpair direct": "1b8cbc0993a4537b8e70de011a87728a95cf2bc046b55f7874ef2458ddb397b7",
    "tfa ntpt partial halfpair direct": "2b63a4aeb1f18eb6ece6702bc8fac54bad9541c1334ef82fae31cb8df35809aa",
    "tfa ntpt partial binary direct": "1a91d47d4edc2f298e75368bdb0a8007b1cf677850c8c3cd8819838ebaed1ae2",
    "tfa ntpt complete halfpair two-tha": "07bc9cbc8a6ccc29da088d6029d2d0dc1823503bb74cbf18c587749bff60162b",
    "tfa ntpt partial halfpair two-tha": "34b97bf605ad3dc0808a3a9476ae7f2e001cc089df0a2b814bf3ecba69ce8fd0",
    "tfa ntpt partial binary two-tha": "4e823c0160d34692417d72842c3b950067db8981ec698a6209cf95e73247c929",
    "tfa mux complete halfpair direct": "3d16ec423bc4bbc584673f722c83fe13f0480e31b28f9e9860b585f362f38023",
    "tfa mux partial halfpair direct": "8e8ed953eb367d6c17d50bce2a13ed2ff5f413e6cf1cb4ca2dc4c83a151fb288",
    "tfa mux partial binary direct": "bfdfd1b0dcd91e0a50fe3406f69265b56a48f2531ffa9bba85d12449f4be3c68",
    "tfa mux complete halfpair two-tha": "4bfae2359044a72791fec8a43dbab476baa196c107100faef84b5b9b83f5c98b",
    "tfa mux partial halfpair two-tha": "42799330d99cf455779e70459e6be6e957baba78062bca289505f2406e63e683",
    "tfa mux partial binary two-tha": "336a08c42607a3a9eaeb97a6618f2f7249e4f386219c5b0b3d28d7c49899df9a",
    "tfa decenc complete halfpair direct": "4888dc5e8e691788e960508b99b3f6846133518860e382fb7ce245b50e330a4c",
    "tfa decenc partial halfpair direct": "0b6a002e9e242599920b767ccc4608a828ced345418904e3481d112e4e2745c0",
    "tfa decenc partial binary direct": "be0f41de2a5df4cb3d5af9ad18a02366b75f639803cf4ed1cbf28f86ec4d860c",
    "tfa decenc complete halfpair two-tha": "d815aa0577c7b6c118205b19ce9099bb6efa5a0e86b934522ecc940eb4ca9b83",
    "tfa decenc partial halfpair two-tha": "6d8be4b50b25c571c5cc16792a3650e606cee385ce7ac3708a3f709a3394c2a8",
    "tfa decenc partial binary two-tha": "25e5944938985c8d24243ff780c2373a8f8ef7e5c2910f8bdf17d8745dd16755",
    "tha ternary-cmos halfpair": "5c3a23aa17d3803631763d189c1aa13c9f63f94f541d83f4d64a9f1743e07b3d",
    "tha ternary-cmos binary": "0aaaeae0aa951e7a094d221fbe1ed237b98707e2fc40e062455a43b9ad649f38",
    "tha ntpt halfpair": "984145b85053e81ef2ef2f2f054c33619dd5068780e599f4b50ffe7ef38b1e3f",
    "tha ntpt binary": "e1322978321bee51c5ced4eb0acddd20ce43aff01a92354104dd0e1f4d3167ae",
    "tha mux halfpair": "db040744f5ca4ec14010caae0e7507a24d2a76c80e15e8938f6043ad48777e32",
    "tha mux binary": "2b536d88b781836841e1f833c9cb2f319ee1ae4105d72773900cbc9e4e145e7d",
    "tha decenc halfpair": "b81d70ce16f311c2e1274f8362cec72d6d1a8757f30a193e1548c597534abee1",
    "tha decenc binary": "3a4041f38d061b88c56a9a80e515fede81e917676bbd2dab78c2f7f05afc3590",
    "rca1 ternary-cmos direct": "8f52cb8695662ccb0fdecb192400ec1ffada8c96991acfaae089c524639f5e36",
    "rca2 ternary-cmos direct": "6a4020cda28173c257b9bdb5207e9815eb79f896106c4a2228a1ea8c83bbdf5b",
    "rca3 ternary-cmos direct": "eae24607be16bbbe1037d71e44ec754da8bf34a12b2e19716993af593bc97bf7",
    "rca1 ternary-cmos two-tha": "312f2f9b5226aad2a257d31101955acd51b9399567a865410542874db692f046",
    "rca2 ternary-cmos two-tha": "58aac826eec6d16cdcd765dcf190fb1688d15366496b7e9c1fb036b2b698ae55",
    "rca3 ternary-cmos two-tha": "6013967ed79725496bf3017f749a98d4a613c312e8a7d6aee8458014d280bcd8",
    "rca1 ntpt direct": "26138f5c928da55f93f822314eb6881ed619050cbee57e5ecb857fc409c5c468",
    "rca2 ntpt direct": "01f2dd8f49963c6aa21575df777ef5f548c03181a7e59747d002b17ebed320b6",
    "rca3 ntpt direct": "7f44ce9bfe58c24bf6c08d402e91f71003143ebfce72fa1e6988f317f8824606",
    "rca1 ntpt two-tha": "021d4d89e651e979b69e8efff625ce580aabc2703bf1d59d33ac5c5575c9a6c6",
    "rca2 ntpt two-tha": "fe2b38d6e4f579bad153ca2d893b486121ce26af4413ddf58ef84288bb65db1f",
    "rca3 ntpt two-tha": "f0ba67da4a20f4025f37bdcceec2bc05858778ea8193405a7a08666c93f72bab",
    "rca1 mux direct": "c4bd3284e94e5c88085c6a33517da4fd8dfbfc1dc12ba5af5cd39a2bdb2cf0c1",
    "rca2 mux direct": "4eef9e54fb8e75a4dee6c71760e714f5694b40dd8b4aa25291b5800f74cf31d7",
    "rca3 mux direct": "2de7103a01f33e3ac587197d52952bd58d423cd98b673b0063079dfbe7492f67",
    "rca1 mux two-tha": "6964929a791a7e62a12f8d818e75c30249ab2be0d6e486882b5a68ebb3756305",
    "rca2 mux two-tha": "23a3602651eaa8333704730e703c7f8acba90d37dd8f2b65f426669cfca79fe6",
    "rca3 mux two-tha": "78a64e4ad791d07e81aaa6decffb1fdddb2f4a8f9d2c437176ce50ad5626056a",
    "rca1 decenc direct": "88d918a0ff60dd8391afb6faeaa70aa75560f15a5f0c37148321eac29d6ab8ba",
    "rca2 decenc direct": "a9f50d34aabb9c3e6aa7fa1088e5cc4dbaf133be045aaf950cdd5036236b8c6e",
    "rca3 decenc direct": "f7d76e3948907a253f8b25a187681f063bb17c63bbf2e3e5ef90dd0f41902bed",
    "rca1 decenc two-tha": "46a829941f109a888fa1da8c533754e72d704fa2d8b95dccf6596146084a3218",
    "rca2 decenc two-tha": "112c07c3ca3ea34978213135798603e55ca24c96c64fd25de4c1d7826c309646",
    "rca3 decenc two-tha": "9e416da2318770211ef0acbe984e737f73e1d60f9f8f157fe171679454af9476",
    "testbench gate nti": "727180144b3c711cc6e16c8ea70d409ea208f11eee796f020699276b920a9c59",
    "testbench gate pti": "8b475947023c825bfda12f1ff7431d1542406d6efa963a709ecd0b4eccc887ef",
    "testbench gate sti": "4fa122683b19e04ba03368971fa95909953a42d2b30d6a46f17da4971e30e781",
    "testbench gate bininv": "bc7560a67f36a8ba4870866af130ca1b5013c4eced4818d5045df6a747239409",
    "testbench gate decoder": "f884d092a488ced97f5dd38175962e88565c8468e06bdd9e97cdede5934d77bb",
    "testbench gate buffer": "f491affe30abf677e747dc466c0e7b6ef74a0908706e86aff86a0d68530d3c9a",
    "testbench tfa ternary-cmos complete halfpair direct": "4dbc0716e6155a31410378eec62e87c73c2daa49afd79b8f053477f0149bdba4",
    "testbench tfa ternary-cmos partial halfpair direct": "108df0d083b793254e419856bd1705c5c6723f5fdcd26987d075456463f4fda2",
    "testbench tfa ternary-cmos partial binary direct": "fb07c14b75b2be4dd4039940d130e2e5d143379f9ad506bebafe40d019e3e76e",
    "testbench tfa ternary-cmos complete halfpair two-tha": "29e4afcc3e74cc812406d1cae407cf69ec723a519db9de3c90e5cbd0f0da1413",
    "testbench tfa ternary-cmos partial halfpair two-tha": "820a8f19360ad0f94f089acf0862c39f52d1813676269b7924d4cc2950990620",
    "testbench tfa ternary-cmos partial binary two-tha": "0528edd2a065241897b4d91606d7cb8e54e0b65ef7b619c409bf9f8605356b03",
    "testbench tfa ntpt complete halfpair direct": "a7a57c09bcb15647be1c8d6532b537b0245148f87adbd9a41e43cb890fddc6bc",
    "testbench tfa ntpt partial halfpair direct": "daac5eccb34d1e7851263a9b9d4e4bd67f2c4981c0de5a7c3fa8454a65962cc1",
    "testbench tfa ntpt partial binary direct": "397c102cbb2770a3adc8b934cae5b2d9e8cfbc9d8813ff58bf70bdfb9ea71b7e",
    "testbench tfa ntpt complete halfpair two-tha": "44cdfb974a4f7118f5134159fbc71d6d09675fd7c6fa4c9b53ae421654af217b",
    "testbench tfa ntpt partial halfpair two-tha": "ca935ef8f0976367b52d9dcd92da410b16dc496110b0d6ecd6483afd2f2154ed",
    "testbench tfa ntpt partial binary two-tha": "ced39977c79944255d3ef90678f929ce00004fe7d95e79ab73fe3336ef5284cd",
    "testbench tfa mux complete halfpair direct": "924f264161f2d76078538724dd0716c01f4e112babf1fcec36e4eb1200318b51",
    "testbench tfa mux partial halfpair direct": "7f2baf94a01b458ae8244f9e2ec2b299a93b0e794473d412b3a07ce04ea063a7",
    "testbench tfa mux partial binary direct": "33ea9a75fa5b8ad4e14bca30408f7f002e817d94be97cc7a62c6998e7ad103d2",
    "testbench tfa mux complete halfpair two-tha": "a515ab9f90e9277035ab1d1dfd7dc7739c85e84ea1ae19198915a1bd8868d7da",
    "testbench tfa mux partial halfpair two-tha": "e6ea32e6eddcbff77fa8c26db39d58c22ad126f0cffb8e2c6496c5a02793bbc3",
    "testbench tfa mux partial binary two-tha": "8ee847a58577b7891eb3b69a798625f9be33991fb88376ec2c724b8965b95b02",
    "testbench tfa decenc complete halfpair direct": "bc21f471f5bebfe6d6a66578d914913410b7bf2600492110839aae002ee40092",
    "testbench tfa decenc partial halfpair direct": "b9c6ca270c7c8e567b93d7e55e870c86488c28380b2af52153e7a38d0856b95f",
    "testbench tfa decenc partial binary direct": "eb66d092410e97cac7f669029e62a5de8b220d403e32639c345adb6771c6b6d2",
    "testbench tfa decenc complete halfpair two-tha": "b1ff460f6eea245a8f913225f13e67ec18a34054492f9e685ef7375a0bdf8ca5",
    "testbench tfa decenc partial halfpair two-tha": "9646ff7ed6e3c43c59bd13955b4b748f2dbd4bedf9683eff4e2f15aacf56fdbb",
    "testbench tfa decenc partial binary two-tha": "ee26aa61251627d25acc76f281287a59165400fdb29a05169f0bb313c100a838",
    "testbench tha ternary-cmos halfpair": "f8d4b50b31a887b4a9eb4b74a65b3d8f41dd77f3f1caa5599b40248ace227e46",
    "testbench tha ternary-cmos binary": "da9cdc08c06beb510cc195b2f31357ba2516b3483522c4262da6205571634c5d",
    "testbench tha ntpt halfpair": "24bc56b52e63fa825c54f333178d204355bc499706afa15b17cc25ff48db9224",
    "testbench tha ntpt binary": "bb960dbd382a06f93024487807a409283321a6378c8c187eafef6be53246c11c",
    "testbench tha mux halfpair": "ddce10e581dccb2cdb0fe12693152b1b1e4212b05466e5e8b60da975f912e824",
    "testbench tha mux binary": "5f4c9f4ee0d8d6c54f24ca54c4d38c289ab4a85849199584f495a0a8fb6106bb",
    "testbench tha decenc halfpair": "504def1c21d5bddf8ef7c812c8a8777fc3f70a7a88357bb6a4cbe34d544a010c",
    "testbench tha decenc binary": "8023d38e8aa35f3d35b1dea3bc9dadfecc24f33104c9412b450ba9d2148b4612",
}


def _golden_netlists():
    cells = [(f"gate {k.value}", gen_gate(k)) for k in GateKind]
    cells += [
        (f"tfa {s.style.value} {s.completeness.value} {s.carry_encoding.value} "
         f"{s.cascade.value}", gen_tfa(s))
        for s in all_specs()
    ]
    cells += [
        (f"tha {style.value} {enc.value}", gen_tha(style, enc))
        for style in Style
        for enc in (Encoding.HALF_VDD_HIGH, Encoding.FULL_VDD_HIGH)
    ]
    rcas = [
        (f"rca{d} {style.value} {cascade.value}",
         gen_rca(d, StyleSpec(style, Completeness.PARTIAL,
                              carry_encoding=Encoding.FULL_VDD_HIGH,
                              cascade=cascade)))
        for style in Style for cascade in Cascade for d in (1, 2, 3)
    ]
    benches = [(f"testbench {label}", gen_testbench(n)) for label, n in cells]
    return cells + rcas + benches


def test_generators_are_byte_identical_to_golden():
    digests = {
        label: hashlib.sha256(serialize(n).encode()).hexdigest()
        for label, n in _golden_netlists()
    }
    assert len(digests) == 100
    assert digests == GOLDEN_DIGESTS
