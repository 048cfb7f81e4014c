"""Byte identity of stdout: SHA-256 digests of the JSON that `tau`, `image`
and `verify-all` print at r = 5, 7 and 13, that `chartab --check-ltwo
--check-borel` prints at r = 5, 7, 11 and 13, of verify-all's inversion
spot check and modular-data at r = 43, of `tau --survey` up to r = 43, of
`dims` on closed and bounded surfaces, and of the text and CSV forms of
each report kind, run in process.  A change that alters any of these
outputs must say so and update the digest."""

import hashlib

from so3tqft.cli import main

_PER_LEVEL = (
    ("tau", "--chain=-2"),
    ("tau", "--chain", "0"),
    ("tau", "--chain=-1,2,0,3"),
    ("tau", "--chain", "3,-2,4,1"),
    ("tau", "--chain", "2", "--heegaard", "sttTsTt"),
    ("tau", "--survey", "6"),
    ("image", "--generators", "so3"),
    ("image", "--generators", "weil"),
    ("verify-all",),
)

_DIGESTS = {
    5: (
        "861a2df82e8b84791a1d046ab3f44d1ff7b451f8b4e3ebcbb278734d3d11b5ef",
        "3577b47fd42a5903dbbbf507b9274ff93ce7be5a003339adc301609a34fa95a4",
        "4a989a2ccdcffb591d6c26d6fbfa507a397c6f24f81bdbf534ae2a4dbef7bd92",
        "3b4f5da0ec88a5c8652385575ed0b450141e994696e83d14a8432a4031742e12",
        "1e9d44bdd92bc076020f0eac1001b4147888e2769f2f3607bd609afdad8a394b",
        "530ce7c7873a34ca0fb887329f9dbe5c7e9d662aaa76021b6c8572e25cb9ff3b",
        "1af61bba12622de308abdf549cb0f310e988dbc70fcc8db3264b55e548304973",
        "d262a4ac450b2f0b296731f9b94e05cc0d0905669b63e55e7e9d3acebe043bc8",
        "da4aec157edfb6464bd7c5a1b8711dc3b4ce0ca50e542bbf984c5900eb439504",
    ),
    7: (
        "cded8e94d3ae7f47111b4c7be520a01d179a95287f6d65f11f1d5161bcddb82e",
        "280fe0e869a5d87c6eff3583cb4fc005c9b4aee51139fb74e9972e22729ec8df",
        "347e47579b804934dd47019952c81a3ec25fb82a068762585eb505e6b739ff6f",
        "0c92f314fa3c74069d63ed3ad2b10b412cbdb49e3c38762f9cd709e3b4d0025d",
        "2ace89c868bb9faf15f0fac751bfbf65075ae860451ecdf56702b1ff4c612347",
        "97be61ed1076a7174718afaeb2cfd3fafe687dc421516f362bdc9f772c146030",
        "a9795e5987aeccc63c64e5c053c2d0edddd6f3ed56975b304449b4b85c883320",
        "76b6c2845745e3da4cc8b0054fb97acb2c245d454f8360d3bc098b1c60556004",
        "87e220121661255969e1fffcaeacf55c9731b86887fcf7307340edd1b7e38e98",
    ),
    13: (
        "553687cb8298651f8ff4c3a753307f458b68ce0e5d94225e2dedabd362ca4015",
        "09989ad84b7f6a38d8b7760d4eb996fa96d6cc76b3752fdb70d419b3d9f4107d",
        "4192fd60ed0a1297a1064b3e57733ad8a184cba30708b89c78e55e46570aada1",
        "913ca20a97695a57865c3b02db45482d57060ff0a129071cb83d0cc3b60275f9",
        "6535d1a4e0c2d5735715b36c598ba1f6e60ea2a0a0f8f13ada8267157c6bc507",
        "1375e0a0d72119ad67e1cf6211007fd2b1ec7d25e5fef86bdba56aac3f6b63d0",
        "58bd6af08621bb951ca3b05b5d26841bca831444544b9c9bb7d0986aa2409bb9",
        "b21e554684981104635ce602d57bd634969f3264a72c22ed738f6f1f28e36184",
        "798c14504aadcbd078945cf8e3b519c7f87e3941767b78b7a16d5f861a9b5211",
    ),
}


_CHARTAB_DIGESTS = {
    5: "1f1ca2bb513808b3f2bbd5e38ab7a248b1d0f62f4552d3b4899df951294b54b6",
    7: "be1039924f493f2dfe12fab711d964b2c52df75bd0666e18d423edecdf94fe08",
    11: "23f6f5e8e7a9dc2da292bacc8bb22b763df3d6cb2392743f07c61b3ce7529137",
    13: "edbce763532b61613b91d18abad0d2438bcc014810da35d7e3e7fd5c16c38af2",
}


# verify-all at r = 19 spot-checks 100 inversions in Q(zeta_76), and
# modular-data at r = 43 prints D, built from closed forms with no inversion
_INVERSE_DIGESTS = (
    (
        ["verify-all", "--r", "19", "--seed", "1", "--json"],
        "99182750e4f37d2f6bd08d7a9ed8e9f044f5658f0693652ad6db993c5d905b8a",
    ),
    (
        ["modular-data", "--r", "43", "--json"],
        "c525dd979198a0a6bc4db0d8857013f65221acbce0179b90fc60827671e23889",
    ),
)


# the norm survey: saturated at r = 11 and 13, beside a chain and a Heegaard
# word, and at r = 17 and 43, past the enumeration cap
_SURVEY_DIGESTS = (
    (
        ["tau", "--r", "11", "--survey", "20", "--json"],
        "670108ff792274f6c0a5b90bafe8a3dfc4965be616dc6bd738c0761845e9ece4",
    ),
    (
        ["tau", "--r", "13", "--survey", "20", "--json"],
        "2dbcb1695973e17e3122ed3880249b37e95dd960520d4e630b52d01a16540c12",
    ),
    (
        ["tau", "--r", "13", "--chain", "2,3,4", "--heegaard", "sttsTs", "--survey", "5", "--json"],
        "4bcf022421f959925cfa490d393d53d73f88988dafaf9e7618d982e99d26ec80",
    ),
    (
        ["tau", "--r", "17", "--survey", "9", "--json"],
        "04a0e8b29219bdee984e6827fdc1d6ed266fb3acf6cac723d542fc467b9a4567",
    ),
    (
        ["tau", "--r", "43", "--survey", "3", "--json"],
        "c570d6d6e94686f32fa4fd5615ccc4cfeb4f27f4926523f2103c6a48c12349b4",
    ),
)


# dims --r 13 --genus g --verlinde-check --json for g = 1..12
_DIMS_R13_DIGESTS = (
    "ede3c1a0ea619afcd1d479b2053420eec2b210055482269ab766cd3eed6cefd0",
    "d0b0a21e42b56fe31fce9570144e9daf3e61d64d13f5446942acf0fa661c73a1",
    "53414163a6da7df46e981ca107590dd4b7fe2ee2321b627ce0685b7941d942b4",
    "63b8402850c92b91becc358060708dd2d873601259a6fcadfa9811130b5d7e2c",
    "cbc7719d45115f799ca230f00da363470a2bee9f09fba451811135d40cef2018",
    "ef288ec4ba3f920aad3d0c84d200c1a22900c94fe1bb91e90ca67aa69d391fcd",
    "fff4083b819cfb7be81edf0ae81b14be2d64e302214a68400ad90207e30b0f30",
    "862434a31509296838f92ce7b7bf3c52f062604c4cfebae8798d302f7a8fe12e",
    "79a2ced96d2709cab707b535ae790f4e0291697b87a67ba0e9bcf3a8b60caf3e",
    "4d15f3969f586cbbf64017d97a4c4d369307d942aed8e75690d1017f002eeb35",
    "c4fd205d9f828b4831ebb274396794ede7c69e326f3be8efd166b90b0647cf61",
    "db2048a3c61b62f959df75e9191e7a4ed71c6bf2301ffcff2970ec02d4fdb65b",
)

# boundary chains through inner fusion labels, and the level cap
_DIMS_DIGESTS = (
    (
        ["dims", "--r", "7", "--genus", "1", "--boundary", "2,2", "--json"],
        "436e4b4b55601bc2c1e50d5f49d28f29980ec3fc521ae77928eaf195da73e000",
    ),
    (
        ["dims", "--r", "11", "--genus", "3", "--boundary", "2,4,6", "--json"],
        "3064aa66b3c930e738899d9780cad2d152f12be72b4ec793e58bfef128f5e728",
    ),
    (
        ["dims", "--r", "113", "--genus", "6", "--verlinde-check", "--json"],
        "115d60d421a1c7a39f8a4028f33a85cccd1af4f46da33882587f309ed7a15198",
    ),
)

# (argv at r = 7, digest of its text output, digest of its --csv output);
# modular-data at r = 13 has lists of more than 12 entries, which text elides
_TEXT_CSV_DIGESTS = (
    (
        ["dims", "--r", "7", "--genus", "3", "--verlinde-check"],
        "0a151add207c7692ca78630f127d43b1df80740e257f8ee62dee023624077249",
        "456813a6471527441fc6852cb952df6e9fd2984b4c5833b20cb91e2004a85e5b",
    ),
    (
        ["verify-all", "--r", "7"],
        "b86b335c5cc8edd78e4725208fbb7a76f865efaaf22c1eb2518c99545ec8f017",
        "c927e4955c38fcd83bdf0532438f0b2daddf36e92877a161738a32ce7047e9b9",
    ),
    (
        ["image", "--r", "7"],
        "aed3cdedff970f94e2fbff5855c4b549e9e38f97db1556a5ea5565730a91c845",
        "280ad87b31104b65bab679c61b0b22bfda223276ed03700b908f2b8f327b82d9",
    ),
    (
        ["modular-data", "--r", "7"],
        "9911e0f4bcddf479f0a8a5e9716a28ce438c65f6ded4883b77c0731c5a224031",
        "210a1dcfed658773c91e4bd442133f3f9a2667db7340a6e7b47f955f2e40f6e8",
    ),
    (
        ["chartab", "--r", "7", "--check-ltwo"],
        "b50e6d4c5d61a75a11a0703a6be1a65d255d5c391839528afa06a6f02b69b5e9",
        "8396df038d5b8bf763dec2fbdf95766e83ef46e5fe153bec76c4ea2448a3362c",
    ),
)
_MODULAR_DATA_R13_TEXT = "77969fdbab73a25a3f55568e29a0e3203cf2d356a67c77a9035611aa3026030b"


def _changed(capsys, runs):
    """The argvs of the (argv, digest) runs whose stdout or exit differs."""
    changed = []
    for argv, want in runs:
        code = main(argv)
        out = capsys.readouterr().out
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != want:
            changed.append(" ".join(argv))
    return changed


def test_stdout_digests(capsys):
    runs = [
        ([sub, "--r", str(r), "--json", *rest], want)
        for r, digests in _DIGESTS.items()
        for (sub, *rest), want in zip(_PER_LEVEL, digests, strict=True)
    ]
    assert not _changed(capsys, runs)


def test_chartab_digests(capsys):
    runs = [
        (["chartab", "--r", str(r), "--check-ltwo", "--check-borel", "--json"], want)
        for r, want in _CHARTAB_DIGESTS.items()
    ]
    assert not _changed(capsys, runs)


def test_inverse_digests(capsys):
    assert not _changed(capsys, _INVERSE_DIGESTS)


def test_survey_digests(capsys):
    assert not _changed(capsys, _SURVEY_DIGESTS)


def test_dims_digests(capsys):
    runs = [
        (["dims", "--r", "13", "--genus", str(g), "--verlinde-check", "--json"], want)
        for g, want in enumerate(_DIMS_R13_DIGESTS, start=1)
    ]
    assert not _changed(capsys, [*runs, *_DIMS_DIGESTS])


def test_text_and_csv_digests(capsys):
    runs = [(argv, text) for argv, text, _ in _TEXT_CSV_DIGESTS]
    runs += [([*argv, "--csv"], csv) for argv, _, csv in _TEXT_CSV_DIGESTS]
    runs.append((["modular-data", "--r", "13"], _MODULAR_DATA_R13_TEXT))
    assert not _changed(capsys, runs)
