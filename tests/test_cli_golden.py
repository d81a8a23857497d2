"""Golden CLI outputs: the sha256 of stdout and the exit code of the
corpus commands are pinned, so a refactor that changes any answer on the
bundled rings fails here.

The commands run in process through ``run_command``.  ``modules`` runs on
every ring at ``--max-order 16``; quiver_f2's run is the longest, at
about 1.6 s with the pure-Python kernel.
A digest changes only with an intended change of output; regenerate it
from the command's stdout (``ringscope <command> | sha256sum``).
"""

import hashlib
import io

import pytest

from ringscope.cli import run_command

GOLDEN = {
    "classify f2xy_j2 --json":
        (0, "b88b7e50bd9eb922bff9b7206d568d6ef1c1f88abd33632a278464377da52c2d"),
    "profile f2xy_j2 --kind i --json":
        (0, "5b8bc2ab96898d5c6701216849265f929c481f8fbba7b780c6e05015626b83e1"),
    "profile f2xy_j2 --kind p --json":
        (0, "b4ca302543f15564c57041088e72cf7bda80569fd5ad6bcbcbf9063cd1105090"),
    "filters f2xy_j2":
        (0, "6a97495e09491e52f01ada2a9dac7aead68c1f28da9a2b7c6f6506bd98048ed8"),
    "filters f2xy_j2 --above-maximal":
        (0, "61b64c1fd0c1335d6066daed051568d9316f46f336890671d76f19b499c0f6ed"),
    "modules f2xy_j2 --max-order 16":
        (0, "8ee40dafe6392fc1827c11da7c40e729215d0d24a9eb0eed3bf6484b224ec287"),
    "verify f2xy_j2":
        (0, "bd2549418725d95c5a4c95f1dc28b9294b222db955f63cb7d5c7a79815bcae2f"),
    "classify f2xy_x2y2 --json":
        (0, "9b1d1782da5765cbd83662f893930ca01bd66c1c1437233478ea252a97a58101"),
    "profile f2xy_x2y2 --kind i --json":
        (0, "0136e9572fb3bc547064081c614bd5ba88747a7ecb9fa5f23549045b4d86613e"),
    "profile f2xy_x2y2 --kind p --json":
        (0, "9c2e4d02fdf3c76d87fecc613a3b5c69e79928ef2add74c018f2ceb16a30c224"),
    "filters f2xy_x2y2":
        (0, "cccde7bba5206a8404b13d15be01265b176f9a6b7859b3597bc905616f043833"),
    "filters f2xy_x2y2 --above-maximal":
        (0, "a60537c8a0ba5c4ea2759d8e91754eab231da348d77c7b5116ecebb0341e687e"),
    "modules f2xy_x2y2 --max-order 16":
        (0, "d9467f13098c249b91d9d5dbaf858c58a38b00d6222a02002025b4399fb44655"),
    "verify f2xy_x2y2":
        (0, "144b703377b6da8592dbd9cb6b205141ddd9d7f698490fcc0daed164257142e1"),
    "classify m2f2 --json":
        (0, "0a02494407462db6fb01903d889dcd5f8b00ea59ea67d60039b7882e3edb4038"),
    "profile m2f2 --kind i --json":
        (0, "c9e25d71a439240734f7d323c13e9786d5e608b8737ac2e5fee674b671d6ea58"),
    "profile m2f2 --kind p --json":
        (0, "fab48448f4b67f4d8019ffec714d728443465a2a854d3694ec0bad3bffd0d80d"),
    "filters m2f2":
        (0, "677651135be9d49a6480127fe3a4f751b3bcfce85113fb7c9443dd75ca82e4dc"),
    "filters m2f2 --above-maximal":
        (0, "310e7400574188c0a6bbcb249c08660c373dd09b53fd462e0b54ac1bfe17b613"),
    "modules m2f2 --max-order 16":
        (0, "3feed47774a6598b4e16f60d0c01338b7d25b73a6fc45ebde81ee66afb1d2faa"),
    "verify m2f2":
        (0, "02a0e8d96fc6e715107fdef1a9b404456ac36ef0910836bc53ed3eea2fd85f97"),
    "classify m2z4 --json":
        (0, "e2491eb1e7d9619368cf759212481b3df3460eb85385fef8854cddae3d512b5f"),
    "profile m2z4 --kind i --json":
        (0, "82fad163c6d23890d103ecb113e2829ccbb1f90b7c4c501523a600475160fc70"),
    "profile m2z4 --kind p --json":
        (0, "76a71cc457af765a584fb33c11b6ba5e002d3bff30a036e14f0072bc259b1d7a"),
    "filters m2z4":
        (0, "e700213014955ac4319ebdf55f4493c46fbe0e9d32e5974fa79f33de56d41e44"),
    "filters m2z4 --above-maximal":
        (0, "8c8115d951cbb51703e9999d44449b3b7380845f977816047c1885af596a18e4"),
    "modules m2z4 --max-order 16":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify m2z4":
        (0, "9cf355ebf0936a23745ea0c42ead188684763b1a2ad6ec86c8b90cf7535ef57e"),
    "classify quiver_f2 --json":
        (0, "9650dd83e62d6304dc1db87fc89085da0bcaf6b6d2cc35cc7b0a849be0f48337"),
    "profile quiver_f2 --kind i --json":
        (0, "7859bad0b1cede8c18e616c1044cd231ef5ae2ab68d37dde5035b661be1253f1"),
    "profile quiver_f2 --kind p --json":
        (0, "b028133ad7deef35b1ee0a1ce7756c9fa90c048a3ae233da5966134854c716e1"),
    "filters quiver_f2":
        (0, "27ebbe589746835a87ea899e15a6f0ddec6a618f15d0b624fa30e904cba5a048"),
    "filters quiver_f2 --above-maximal":
        (0, "54e447d3a0a28e4378f2a6db612458dfbd9b5a72436aa1a44bce4df5b102306d"),
    "modules quiver_f2 --max-order 16":
        (0, "0634988e7d244796652119dc9e493ad3ff529d5ad1686a505952812607677a0c"),
    "verify quiver_f2":
        (0, "5dbbabc5f7f213348ef44bd6ec93354c062e117943ca20cb54d8c4bd30b6bfdf"),
    "classify t2f2 --json":
        (0, "5d8309dfe56ea802b895770ae536c69aaffd855e4cc7e432ae95db2ba7b0d2eb"),
    "profile t2f2 --kind i --json":
        (0, "54f9f5d519e18e1143ebbb3e69c9c722aab6cbd88e23f944dcd1de501efa5bf0"),
    "profile t2f2 --kind p --json":
        (0, "740436505e223a48189bec071e2556cb8d12527775b10e241583ec1b3dca0081"),
    "filters t2f2":
        (0, "bf89164d1c4316cd46bd36bae2c6ec818457a263e8c6fb6af7e84fbd8b8dd191"),
    "filters t2f2 --above-maximal":
        (0, "99e6dc3fde3a1fa9286323a03cdf6807a109320dee3d1e6443f197f8e6961a4b"),
    "modules t2f2 --max-order 16":
        (0, "42676f10d8d9e8a11ef3713a1ab9878500129a14e0ef3616bb1e0b2f3a2da686"),
    "verify t2f2":
        (0, "691e9cc58f641fc55a09b2ea5a18f32f98a799ccc2a1c186b8d25ceaf84053ee"),
    "classify z4xf2 --json":
        (0, "0681f8fb24bc8fdd903469815d0b5bd3a1b0d2ecb2e1c334c41f3fbbc74d4946"),
    "profile z4xf2 --kind i --json":
        (0, "3b027a947e5fc126fdd36a6b619143e09bae1ddb1e79b22df44aab7fcb550452"),
    "profile z4xf2 --kind p --json":
        (0, "0b16fa2c231164df17598409e9859afe8e593b8ea5f41a68ce27677aa00f7445"),
    "filters z4xf2":
        (0, "1a74bfa61c1bfc528d037002b6e2eb1d66f797d82a7b61726072ccf2738d249a"),
    "filters z4xf2 --above-maximal":
        (0, "a3777d1d6b8787c27d3faa1aa925c07f997223f77613801d711c63f3f96d2afa"),
    "modules z4xf2 --max-order 16":
        (0, "996977347abf42d34d73e6b9c35ca8b0977be19b2014abccc15203b43028acd9"),
    "verify z4xf2":
        (0, "9cf355ebf0936a23745ea0c42ead188684763b1a2ad6ec86c8b90cf7535ef57e"),
    "classify z8 --json":
        (0, "065cc19b3234b730e4be9d538a221bd5a531841b46109bbdf0d80d8a896cc6ad"),
    "profile z8 --kind i --json":
        (0, "129e35529ad1917919b0bd4e618d2ed57bc28471490a3e9a2b048575714a4a97"),
    "profile z8 --kind p --json":
        (0, "60537536decbd0ba3484ad400709c8867a617aae4485ec747f165e1d746f936f"),
    "filters z8":
        (0, "2758f78bed10604eac1bf024187c17726c8f6211625edbd5b68e115be3572cc7"),
    "filters z8 --above-maximal":
        (0, "02bbc523e5cc3d90033ed30a1bc6fe50ba0072b5c8896e05be92971b99fbc4e7"),
    "modules z8 --max-order 16":
        (0, "0302e90f4a442808611600f27aefcec9d401881578862541ce603bc5d97f1456"),
    "verify z8":
        (0, "706a624c8e99b4e4ca7ee9b203bd8c7cbd4a8f27a75abfcb76a58bed40e29bf0"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_corpus_command_output_is_pinned(command):
    out = io.StringIO()
    code = run_command(command.split(), out=out)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert (code, digest) == GOLDEN[command]
