"""Byte identity of stdout: SHA-256 digests of the JSON that `tau`, `image`
and `verify-all` print at r = 5, 7 and 13, that `chartab --check-ltwo
--check-borel` prints at r = 5, 7, 11 and 13, and of two commands whose
output goes through CycNumber.inv, run in process.  A change that alters
any of these outputs must say so and update the digest."""

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
# modular-data at r = 43 inverts for its global dimension and S
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
