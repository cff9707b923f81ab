"""The output contract beyond the benchmark goldens: the SHA-256 digest of
the stdout of each run below.  The first seven were recorded from the code
before the dual PBW memo and the first-factor q-shift were introduced; they
reach the dual PBW route through straightening, expansion, the reality
squares and `dual-pbw`, in natural and non-natural orders.  The rest were
recorded from commit e2a9ecd, before the two tableau-character loops became
one; they cover the E family, the positivity and reality checks on B3 and
C2, `dual-canonical --format json`, `good-words`, `roots`, `is-real`, and
skew and shifted `character` samples.  The next fourteen were recorded from
commit 5535c78, before the dual canonical vectors moved into the table's
one-weight scope and the dual PBW q-shift moved onto the first factor's
power; they cover `scan --format json` for all three checks (the G2 reality
scan has imaginary witnesses), `expand` and `dual-pbw` in B3, C3, D4 and A3,
and dual PBW vectors with a repeated factor (B2 and G2 at weight 2,2).  The
last four were recorded from commit 1571e42, before the reality check
stopped straightening the square's weight; they cover reality scans with
imaginary vectors (G2, and C3 in order 3,1,2) and without (B3), and an
`is-real` sample with an imaginary vector.  The last three were recorded
from commit e8fe639, before the reality check stopped building the square
and the dual PBW vectors of its weight and began to extract their
coefficients at the good words only; they cover reality scans on A3 and D4
(no imaginary vector) and G2 up to height 6 (seven imaginary vectors).  The
last five were recorded from commit 1e391c4, before the five weight
subcommands came to share one handler; they pin the JSON form of
`good-words`, `dual-pbw` (in a non-natural order), `expand` and `is-real`,
and `dual-pbw` at weight zero.  A mismatch means the output changed; it is a failure, never a digest to
refresh."""

import hashlib

import pytest

from qshuffle.cli import main

DIGESTS = {
    "scan A3 --max-height 7 --check invariants --order 2,1,3":
        "cd2637dc329a5056f186e43922533225bfa76f42dbd692a1096b342aca1bd7ad",
    "scan C3 --max-height 5 --check invariants --order 3,1,2":
        "be203f3981354b5f99f7ffd9471fbe78f8fcf97f3d24c4c586307c07b97b9d64",
    "scan G2 --max-height 8 --check invariants --order 2,1":
        "561dd2afbf0b3cdc594fa5e75086d849818e7e793b856926ddbab56524cc431c",
    "scan F4 --max-height 4 --check invariants":
        "7b16cfbd219e36cbccd29e3e0128ca0d512219bfca7c29dd7d142f3f547e0edf",
    "scan G2 --max-height 5 --check reality --order 2,1":
        "906694f54b66c148908b7414323fd39025281f1b6487f4a356ccf73352cc55c9",
    "expand G2 --weight 3,2":
        "6611fa6f2f174783bb7a9ab362118c3b73a5df62e78fc8c9f978014e0617fa23",
    "dual-pbw G2 --weight 3,2 --order 2,1":
        "63e45dbbba90a1a008640837890bdb77878185b3859e2c283302ef083266f80f",
    "scan E6 --max-height 4 --check invariants":
        "34962c7e3420efd3e728dd08bb07275c2c03a1a94657feb1027fb02155dbfc73",
    "scan E7 --max-height 3 --check invariants":
        "fa3fbd63be5dbe2160cfaadbc01960eac9f3b546cf639efb0b3331af4e440af5",
    "scan E8 --max-height 3 --check invariants":
        "84bddac161b2e5380e9aef0950a6175b9bc51eab5ae9d9141eb23f784147a29a",
    "scan B3 --max-height 5 --check positivity --order 2,3,1":
        "6c6b6c8d2eb64b982c26097c93a818d0f6151d5e709d99393074b111591cb702",
    "scan C2 --max-height 5 --check reality":
        "82b9aee477125225d3788db584e5cba376e57a2663369f5ee83f809b321e43ea",
    "dual-canonical B2 --weight 2,1 --format json":
        "f99cddbe689fcd49ad20daaef7fc6874dfe3bfe2d54a046e2282537c902bebef",
    "dual-canonical G2 --weight 3,2 --order 2,1 --format json":
        "34b5b0113076599ccf8b158c172cea7dd7eb7a71c365df8ab0a8b2a070ea9545",
    "good-words D4 --weight 1,1,2,1":
        "700ace5dba0ca155c34b37b1be0d0e67f6632b5383b78eda7733bbbfed7438e3",
    "roots G2 --order 2,1 --format json":
        "7c70641f4fec1cd5e6eb5c220a5ee69003f2f7b0749edbaccb72f236972d5703",
    "is-real A2 --weight 1,1":
        "ce36801c8a4a5d61c85e55486ce0ffd0a16d0a6a394ade613cb9f831d41e662c",
    "is-real B2 --weight 2,2 --order 2,1":
        "6bdb5dd395c39b5f20c6f86d52cc08e9524a1f2df56264fcd50859f33b0179fe",
    "character A3 --skew 2,1/0 --shift 2":
        "a739c96d1276ada4f629ead8fc9465caf489cf7bcc3ae3431d6115b3f313f4d3",
    "character A4 --skew 3,2/1 --shift 2":
        "788e5f9b1064cd759bb8e84a406fad01971cfba4c0d613e9961c272a9c571a4a",
    "character A4 --skew 3,1/1 --shift 2 --order 2,1,3,4":
        "08d9252957e0d936ce404ca8c66cb147a9e8ccd7942fc1a5a16d871d08f26031",
    "character B3 --shifted 3,1":
        "b020dec12520ae5f91620ef53508112822fab6985e85860b41b09da0f3e53ba3",
    "character B3 --shifted 3,2 --order 2,1,3":
        "de798e7c9f8ba974e16f46e53a6d4c6f90e37eed8c15e829cccb8dc1550ed97c",
    "character B4 --shifted 4,2/1":
        "e08d846e4a44d0073fe93d4c895bd2bad2670b3df538d8f0c49d0de140abe1ca",
    "scan B2 --max-height 4 --check positivity --format json":
        "937f1f4b47da91d78dcae21abac77e54c6dd9f9c2852a619ef8156903d960fc6",
    "scan G2 --max-height 5 --check reality --order 2,1 --format json":
        "06bd7a556693c8bf391648ff76b61bf9445abc08685f24d5a65bdfdc8aff9b02",
    "scan A3 --max-height 5 --check positivity --order 3,1,2 --format json":
        "c5434c8dccea53e8224be61d544121ba8e3678eaad38a74085ea61a898bb04a2",
    "scan C3 --max-height 4 --check invariants --order 2,3,1 --format json":
        "2452c9fb157c4315189861a8f61911bac24dc0c9c5ac188dcdac701e2ea44a80",
    "expand B3 --weight 1,2,2 --order 3,2,1":
        "3504e9d9f1a2b5c62309ad315e8c45d772ac838c726ade4169b1f23947e03bd5",
    "expand C3 --weight 1,2,1":
        "9d629ec099017b05924b5bc2ef5826a1963785938dbbd3d94ebe89cc245b312e",
    "expand D4 --weight 1,1,2,1 --order 4,3,2,1":
        "e705cceba86de64e1b559e707319ca533c2ff06280e2c04005adeb7fc792af46",
    "expand A3 --weight 1,2,1 --order 2,1,3":
        "49dabb5922257dc7b876c19f31e0174300baf07102540ec566f8acd46114ffe2",
    "dual-pbw B3 --weight 1,2,2":
        "94a0b48eda63b6ef971df26ab9cb2df5309f340c3d410271b0bb7cadd03c5d8f",
    "dual-pbw C3 --weight 2,2,1 --order 3,1,2":
        "9fcceb2ad2d515025ca5317766cdfca7690b9d5cb3d80b19c9dd302d907c6eaf",
    "dual-pbw D4 --weight 1,1,2,1":
        "60cfd47c888a0f35fd5828722b2c007cad8c40d4ec1cc11c03fa331573cc1b9e",
    "dual-pbw A3 --weight 1,2,1 --order 3,2,1":
        "5fd0f5a0c2720c2b8709b93f8b3b896b317c84616d8d0a61d6268052e77de5b5",
    "dual-pbw B2 --weight 2,2":
        "f111dd7709dec1a8c5f3b389e6626d4af38101f907c2a1bc56c95e42fef45052",
    "dual-pbw G2 --weight 2,2 --order 2,1":
        "a55ecfc1fc393a12c81bb70dde4241a7399ef5882fbe268aafaf211941fc5f91",
    "scan G2 --max-height 5 --check reality":
        "29c46a687452b9778145998dd041f76a315ed7c4432e9d94ed4a7b3b8c99aa77",
    "scan C3 --max-height 4 --check reality --order 3,1,2":
        "09f64ab3bd208fbc58f8cfe9bc1b5e61b6471a50ca869fa403c882aa82b0887c",
    "scan B3 --max-height 4 --check reality":
        "03a7cbfcd41d1ae4917e48cecf2cd5b7fd280a12f4558d78c388450819e2b43c",
    "is-real G2 --weight 2,3":
        "0ec021db965cbe7e183ab47f03909a8c01d4213dab192fb5276f93498b722923",
    "scan A3 --max-height 5 --check reality":
        "6cc562ce72b4019e54a8017e2b6dbbd3ea98e91005b6d3a18823d12563b26c95",
    "scan G2 --max-height 6 --check reality":
        "1c872748ebaa5de7daef936334fb4d16b5afe4987ac1574d78d1ebe9b5c28849",
    "scan D4 --max-height 4 --check reality":
        "4517a61e72b1961fc72641b6387f975d1d3d53e1e0a95a4969b1f6cab0cbce22",
    "good-words D4 --weight 1,1,2,1 --format json":
        "6f8a90395c9e0d1a01722d909467628ee5677bed4ea36705f320a979cc65959f",
    "dual-pbw C3 --weight 2,2,1 --order 3,1,2 --format json":
        "3edab9ac0ab424a8e7e2c30dcdba00d0fe108a1562ce00c5dea39bc316a47318",
    "expand G2 --weight 3,2 --format json":
        "21fbbad8b42ff4c22df5fc20c1a48cb4f0233b98bd1b779da641d96a98293b89",
    "is-real G2 --weight 2,3 --format json":
        "22375eef5a7376d5351331600ef49edac9c0cc3d739bf1272448ef7bfdde3fb0",
    "dual-pbw A2 --weight 0,0":
        "ce754e0421c11bba6a6f8a7f6f7731183c34112b8737e472bf0dfeed828dff50",
}


@pytest.mark.parametrize("command", DIGESTS)
def test_stdout_digest(capsys, command):
    assert main(command.split()) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == DIGESTS[command]
