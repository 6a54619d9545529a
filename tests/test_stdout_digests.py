"""Whole-stdout pins for the jobs whose numbers a kernel change could move.

bench/reference.json pins only the suites and check labels of the verify
jobs, not their details (the Casimir ``value=`` strings, say).  Here the
full stdout of every tensor and mixed benchmark job, of a few larger or
degenerate verify runs and of four irrep printouts is pinned by SHA-256, so
a change to the exact kernel that moves one byte of output shows.  The
matrix digests were recorded before the integer matrix kernel replaced the
Fraction grids, and the series digests before the integer PBW product
replaced the Fraction one; the two largest series pins (qe3 at order 18,
e3 at order 40) before elements held int numerators over one denominator
and pair normal forms were built from shorter pairs; the longest series
the CLI then allowed (the dim-27 nilpotent arctanh and sqrt1p of the j = 13
irrep, and e2 at order 56, whose series run to the 60th power of h) before
the coefficient streams gave way to closed forms and one shared power
sum; qe3 at order 30 before PBW keys were packed into ints and the
series of one argument came to share its powers; and e3 at order 56
before the letter sets of a packed key were read off it by arithmetic in
place of a per-monomial memo, which held about ten thousand monomials
after qe3 at order 30.  so4 at (0, 12), whose 1 x 1 left legs leave empty
rows in the Kronecker-sum elimination, and hopf at (7, 6), whose products
run at dimension 195, were pinned before products, Kronecker products and
that elimination came to walk each matrix's cached nonzero columns, and so4
and hopf at (0, 40), whose dim-81 irrep carries the longest bands the
suite runs, before e^{±hX} of the map route became bands of J+.  The
four spectrum scans were pinned before their rows came from one formula,
and the LaTeX element table before its X columns became running sums of
the H columns and the LaTeX and plain-text polynomial writers came to share
one term formatter.  Three of the spectrum pins were re-recorded when the
scan came to work in exact rationals, since their cells then became the
correctly rounded values; the fourth kept its digest.  The last two of them
were re-recorded again when ln|u| came to be computed to about 90 bits:
13 and 90 of their re_p_plus cells, and no other cell, moved, each to the
value of a 700-digit reference.  The commands run in-process.
"""

import hashlib

import pytest

from jordanrep.cli import main

DIGESTS = {
    # the tensor and mixed workloads of bench/workloads.py
    "verify so4 --j1 1 --j2 1": "77e7217473222059cec42cf81d8047ea164c81235d238d6102b2291ad227d8db",
    "verify so4 --j1 3/2 --j2 1": "cadd1ca3190958d0e2866745b08979209b450f81ff74856452ed0c5eba6f0149",
    "verify so4 --j1 2 --j2 1": "bd46d2f2e9533b5ed0eb4ec0d4fbd97bfce1ab1fcefe97994d8bcc80435e3259",
    "verify so4 --j1 3/2 --j2 3/2": "39ad3a634ea28a8bcef6d37f7e6a6d79d2d2f6c9393588cdd84c66e5d8eb91b2",
    "verify hopf --j1 3 --j2 3": "226518ed33459fb615e0fb295977ae0cf813c40b37ffe64159c9cbb380c8d72b",
    "verify all": "cbe6335855d09d05a03cb2529aac5a88aa78ed659c334fdf7c40cdb9eef43a10",
    "verify sl2 --j-max 6": "0961fbcae10bc8ada5bab0d5922bee2e4bcd2f2c289e23d832e567ad587c3753",
    # the series workload of bench/workloads.py
    "verify qe3 --order 6": "6a703ca4c016b5439a91105a288cb7f2717823e4a0044c6e2c563ee6c9819d37",
    "verify qe3 --order 8": "aa3d1018b2f16ed6cfd52abfc117be67f4309edb1c0aa145f86a1495bcb9eb88",
    "verify qe3 --order 10": "acb3f72bfe6b2f65618298f02f3382f1e838d3d19a161eba4b0fb903d0949cce",
    "verify e3 --order 14": "ac73c67c8e06db25728f2e8441addce2ca167490f816d6d5df4334d3932bd08a",
    "verify e2 --order 14": "7a47d8d868ba02193431a4a4ebe9e5e3997e65e7c0156bef17d21eec53b6c0e3",
    # larger and degenerate shapes
    "verify so4 --j1 2 --j2 2": "98ec62a3949da198c537bd64f414a95646e69f80b58c2fdfa0f6314848915d77",
    "verify sl2 --j-max 8": "d96a0726018bcf3670fa3cbc7e797c7d88f31a65fa82087ad15a95dc36d8c215",
    "verify hopf --j1 0 --j2 0": "c117ae4d5977350971ffd6606436b7ba9c4c19f42f3aba1dadea7a4ddf77116d",
    "verify so4 --j1 0 --j2 0": "01257e22f8dc42b3466f467e944899e2ce3010f12ace2c6807b1e1276ee17c4e",
    "verify so4 --j1 0 --j2 12": "6c93981e14e7f86e9eda8593312c250dce47178a727f770ffbd2d59dd050ea8d",
    "verify hopf --j1 7 --j2 6": "826d887e2c72e66f4d17275ab9af2ba491f5ddc3baa4b364c602f24e6f93a3d4",
    "verify so4 --j1 0 --j2 40": "3cdd5d5703495d40a6cdc2671c73d567e31cfc3e80d438f034836dda73a80c3e",
    "verify hopf --j1 0 --j2 40": "ab4cd6e552983b826c23d91d837c24f980e1c6cf6ce450ef6ba6bc64c1c88dcd",
    "verify qe3 --order 14": "c7b816c19f6a8b4bea3668b792bd98cc15212225f5ef08df4cbc7eca67891e2a",
    "verify e3 --order 20": "073ae8c389b950bdf421012819b97a8b2ea395545c33607a44d27ed397626d0c",
    "verify e2 --order 20": "39573c171f72fedd742c8db01659e1c7318aae81a6ec01adddd389864a33546b",
    "verify qe3 --order 18": "8924eddfdc74a7d9bb5f2f1078fc59e1d92d57108ddb3651ea148e33c5d59f19",
    "verify e3 --order 40": "996eb3a88be4fa81ffe969594b0a62463c80a09493d2bbee5dc7e0b4cdfc0512",
    "verify e2 --order 56": "950a08d418cc798adba3d191cad085c6d3e84050ebf14487fb2c49717b0a6e6a",
    "verify qe3 --order 30": "3fa8f768708cdcce2f465a4e6feee0c84786294d9ed1f6d6da72f852022f329d",
    "verify e3 --order 56": "1332fe1d693ab7dfa0e681daeae0728fe2af2e75d107e2a8d7184de36cc33895",
    # matrices printed as JSON and as LaTeX
    "irrep --j 7 --basis diagonal": "e2d4c7353a46f84284592593cee5873686e04362bc54b714b27a0f352b17b3b1",
    "irrep --j 13 --basis diagonal": "894a2861e96085d2133512e5e9a300482b4b8d20de7211a00bbb47aa971ded0c",
    "irrep --j 5/2 --basis diagonal --format latex":
        "6d37de2b098ac46a276a9134374fab7b5f723ec4e162756d815add0940476c4b",
    "irrep --j 3 --basis verma --format latex":
        "d24941826b248beb2713dbdc07216dc3af05ba2656a81b7fd5c712019bd8aa4b",
    "elements --max-level 7 --format latex":
        "b1e5557edc7bcc2b8af187e172b914fdd72a30e4ab918cc7b3ff758662d32407",
    # spectrum scans: with a singular hit, with no hit (nearest_approach
    # printed), and a fine grid on which 1 + omega pi+ runs from -0.7 to 1.3
    # through its zero
    "spectrum --omega 1 --grid -3:3:0.5":
        "3c05a6e211adf7cf189ce1661cf6c11d5d35660dfbe6211decdbd281091f68db",
    "spectrum --omega 1 --grid -3:3:0.5 --pi0 2 --pim 0.5 --out json":
        "74776bbdf8c6d392c6b3361467a8ca202b0d7819682d2d92b55c68542212cb95",
    "spectrum --omega -0.7 --grid -5:5:0.37 --out json":
        "c16cc7bcb7f848d0b2667e511345c67f860ad6563516ed980ae4c5e2bad6c5c4",
    "spectrum --omega 1 --grid -1.7:0.3:0.01":
        "b88d1bdd41a22ac4a613f12d6d2b9c07b02c2bb17efc3c21bd67ef29a03ef3e1",
}


@pytest.mark.parametrize("command", list(DIGESTS))
def test_stdout_keeps_its_digest(capsys, command):
    assert main(command.split()) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == DIGESTS[command]
