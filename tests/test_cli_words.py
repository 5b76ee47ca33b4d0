"""Pinned stdout, stderr and exit codes of the CLI word queries.

`eq`, `order` (caps 0, 2 and the default 12), `act`, `stab` and
`first-active` on the nucleus, the relators (ad)^4, (ac)^8 and (ab)^16,
abacabad and a seeded 512-letter reduced word, spelled W512 below.  Each
row is (exit code, text output, --json output), where the output is the
stdout of a success and the stderr of an error.
"""

import random

import pytest

from grigor.cli import main

from conftest import make_reduced_word

W512 = make_reduced_word(random.Random(512), 512)

STDOUT = {
    ('eq', '1', 'acacacacacacacac'): (0, 'true\n', '{"equal":true,"schema":1}\n'),
    ('eq', '1', 'd'): (0, 'false\n', '{"equal":false,"schema":1}\n'),
    ('order', '1', '--order-cap', '0'): (0, '1\n', '{"cap":0,"exact":true,"order":1,"schema":1}\n'),
    ('order', '1', '--order-cap', '2'): (0, '1\n', '{"cap":2,"exact":true,"order":1,"schema":1}\n'),
    ('order', '1'): (0, '1\n', '{"cap":12,"exact":true,"order":1,"schema":1}\n'),
    ('act', '1', '01101011'): (0, '01101011\n', '{"schema":1,"vertex":"01101011"}\n'),
    ('stab', '1', '3'): (0, 'true\n', '{"in_stabilizer":true,"level":3,"schema":1}\n'),
    ('first-active', '1'): (0, 'none\n', '{"first_active_level":null,"schema":1}\n'),
    ('eq', 'a', 'aacacacacacacacac'): (0, 'true\n', '{"equal":true,"schema":1}\n'),
    ('eq', 'a', 'ad'): (0, 'false\n', '{"equal":false,"schema":1}\n'),
    ('order', 'a', '--order-cap', '0'): (0, '> 2^0\n', '{"cap":0,"exact":false,"schema":1}\n'),
    ('order', 'a', '--order-cap', '2'): (0, '2\n', '{"cap":2,"exact":true,"order":2,"schema":1}\n'),
    ('order', 'a'): (0, '2\n', '{"cap":12,"exact":true,"order":2,"schema":1}\n'),
    ('act', 'a', '01101011'): (0, '11101011\n', '{"schema":1,"vertex":"11101011"}\n'),
    ('stab', 'a', '3'): (0, 'false\n', '{"in_stabilizer":false,"level":3,"schema":1}\n'),
    ('first-active', 'a'): (0, '0\n', '{"first_active_level":0,"schema":1}\n'),
    ('eq', 'b', 'bacacacacacacacac'): (0, 'true\n', '{"equal":true,"schema":1}\n'),
    ('eq', 'b', 'bd'): (0, 'false\n', '{"equal":false,"schema":1}\n'),
    ('order', 'b', '--order-cap', '0'): (0, '> 2^0\n', '{"cap":0,"exact":false,"schema":1}\n'),
    ('order', 'b', '--order-cap', '2'): (0, '2\n', '{"cap":2,"exact":true,"order":2,"schema":1}\n'),
    ('order', 'b'): (0, '2\n', '{"cap":12,"exact":true,"order":2,"schema":1}\n'),
    ('act', 'b', '01101011'): (0, '00101011\n', '{"schema":1,"vertex":"00101011"}\n'),
    ('stab', 'b', '3'): (0, 'false\n', '{"in_stabilizer":false,"level":3,"schema":1}\n'),
    ('first-active', 'b'): (0, '1\n', '{"first_active_level":1,"schema":1}\n'),
    ('eq', 'c', 'cacacacacacacacac'): (0, 'true\n', '{"equal":true,"schema":1}\n'),
    ('eq', 'c', 'cd'): (0, 'false\n', '{"equal":false,"schema":1}\n'),
    ('order', 'c', '--order-cap', '0'): (0, '> 2^0\n', '{"cap":0,"exact":false,"schema":1}\n'),
    ('order', 'c', '--order-cap', '2'): (0, '2\n', '{"cap":2,"exact":true,"order":2,"schema":1}\n'),
    ('order', 'c'): (0, '2\n', '{"cap":12,"exact":true,"order":2,"schema":1}\n'),
    ('act', 'c', '01101011'): (0, '00101011\n', '{"schema":1,"vertex":"00101011"}\n'),
    ('stab', 'c', '3'): (0, 'false\n', '{"in_stabilizer":false,"level":3,"schema":1}\n'),
    ('first-active', 'c'): (0, '1\n', '{"first_active_level":1,"schema":1}\n'),
    ('eq', 'd', 'dacacacacacacacac'): (0, 'true\n', '{"equal":true,"schema":1}\n'),
    ('eq', 'd', 'dd'): (0, 'false\n', '{"equal":false,"schema":1}\n'),
    ('order', 'd', '--order-cap', '0'): (0, '> 2^0\n', '{"cap":0,"exact":false,"schema":1}\n'),
    ('order', 'd', '--order-cap', '2'): (0, '2\n', '{"cap":2,"exact":true,"order":2,"schema":1}\n'),
    ('order', 'd'): (0, '2\n', '{"cap":12,"exact":true,"order":2,"schema":1}\n'),
    ('act', 'd', '01101011'): (0, '01101011\n', '{"schema":1,"vertex":"01101011"}\n'),
    ('stab', 'd', '3'): (0, 'false\n', '{"in_stabilizer":false,"level":3,"schema":1}\n'),
    ('first-active', 'd'): (0, '2\n', '{"first_active_level":2,"schema":1}\n'),
    ('eq', 'adadadad', 'adadadadacacacacacacacac'): (0, 'true\n', '{"equal":true,"schema":1}\n'),
    ('eq', 'adadadad', 'adadadadd'): (0, 'false\n', '{"equal":false,"schema":1}\n'),
    ('order', 'adadadad', '--order-cap', '0'): (0, '1\n', '{"cap":0,"exact":true,"order":1,"schema":1}\n'),
    ('order', 'adadadad', '--order-cap', '2'): (0, '1\n', '{"cap":2,"exact":true,"order":1,"schema":1}\n'),
    ('order', 'adadadad'): (0, '1\n', '{"cap":12,"exact":true,"order":1,"schema":1}\n'),
    ('act', 'adadadad', '01101011'): (0, '01101011\n', '{"schema":1,"vertex":"01101011"}\n'),
    ('stab', 'adadadad', '3'): (0, 'true\n', '{"in_stabilizer":true,"level":3,"schema":1}\n'),
    ('first-active', 'adadadad'): (0, 'none\n', '{"first_active_level":null,"schema":1}\n'),
    ('eq', 'acacacacacacacac', 'acacacacacacacacacacacacacacacac'): (0, 'true\n', '{"equal":true,"schema":1}\n'),
    ('eq', 'acacacacacacacac', 'acacacacacacacacd'): (0, 'false\n', '{"equal":false,"schema":1}\n'),
    ('order', 'acacacacacacacac', '--order-cap', '0'): (0, '1\n', '{"cap":0,"exact":true,"order":1,"schema":1}\n'),
    ('order', 'acacacacacacacac', '--order-cap', '2'): (0, '1\n', '{"cap":2,"exact":true,"order":1,"schema":1}\n'),
    ('order', 'acacacacacacacac'): (0, '1\n', '{"cap":12,"exact":true,"order":1,"schema":1}\n'),
    ('act', 'acacacacacacacac', '01101011'): (0, '01101011\n', '{"schema":1,"vertex":"01101011"}\n'),
    ('stab', 'acacacacacacacac', '3'): (0, 'true\n', '{"in_stabilizer":true,"level":3,"schema":1}\n'),
    ('first-active', 'acacacacacacacac'): (0, 'none\n', '{"first_active_level":null,"schema":1}\n'),
    ('eq', 'abababababababababababababababab', 'ababababababababababababababababacacacacacacacac'): (0, 'true\n', '{"equal":true,"schema":1}\n'),
    ('eq', 'abababababababababababababababab', 'ababababababababababababababababd'): (0, 'false\n', '{"equal":false,"schema":1}\n'),
    ('order', 'abababababababababababababababab', '--order-cap', '0'): (0, '1\n', '{"cap":0,"exact":true,"order":1,"schema":1}\n'),
    ('order', 'abababababababababababababababab', '--order-cap', '2'): (0, '1\n', '{"cap":2,"exact":true,"order":1,"schema":1}\n'),
    ('order', 'abababababababababababababababab'): (0, '1\n', '{"cap":12,"exact":true,"order":1,"schema":1}\n'),
    ('act', 'abababababababababababababababab', '01101011'): (0, '01101011\n', '{"schema":1,"vertex":"01101011"}\n'),
    ('stab', 'abababababababababababababababab', '3'): (0, 'true\n', '{"in_stabilizer":true,"level":3,"schema":1}\n'),
    ('first-active', 'abababababababababababababababab'): (0, 'none\n', '{"first_active_level":null,"schema":1}\n'),
    ('eq', 'abacabad', 'abacabadacacacacacacacac'): (0, 'true\n', '{"equal":true,"schema":1}\n'),
    ('eq', 'abacabad', 'abacabadd'): (0, 'false\n', '{"equal":false,"schema":1}\n'),
    ('order', 'abacabad', '--order-cap', '0'): (0, '> 2^0\n', '{"cap":0,"exact":false,"schema":1}\n'),
    ('order', 'abacabad', '--order-cap', '2'): (0, '> 2^2\n', '{"cap":2,"exact":false,"schema":1}\n'),
    ('order', 'abacabad'): (0, '16\n', '{"cap":12,"exact":true,"order":16,"schema":1}\n'),
    ('act', 'abacabad', '01101011'): (0, '00000011\n', '{"schema":1,"vertex":"00000011"}\n'),
    ('stab', 'abacabad', '3'): (0, 'false\n', '{"in_stabilizer":false,"level":3,"schema":1}\n'),
    ('first-active', 'abacabad'): (0, '1\n', '{"first_active_level":1,"schema":1}\n'),
    ('eq', 'W512', 'W512acacacacacacacac'): (0, 'true\n', '{"equal":true,"schema":1}\n'),
    ('eq', 'W512', 'W512d'): (0, 'false\n', '{"equal":false,"schema":1}\n'),
    ('order', 'W512', '--order-cap', '0'): (0, '> 2^0\n', '{"cap":0,"exact":false,"schema":1}\n'),
    ('order', 'W512', '--order-cap', '2'): (0, '> 2^2\n', '{"cap":2,"exact":false,"schema":1}\n'),
    ('order', 'W512'): (0, '16\n', '{"cap":12,"exact":true,"order":16,"schema":1}\n'),
    ('act', 'W512', '01101011'): (0, '01111111\n', '{"schema":1,"vertex":"01111111"}\n'),
    ('stab', 'W512', '3'): (0, 'false\n', '{"in_stabilizer":false,"level":3,"schema":1}\n'),
    ('first-active', 'W512'): (0, '2\n', '{"first_active_level":2,"schema":1}\n'),
    ('order', 'ab', '--order-cap', '-1'): (2, 'error: cap must be >= 0\n', 'error: cap must be >= 0\n'),
    ('act', 'b', '012'): (2, "error: invalid vertex symbol '2'\n", "error: invalid vertex symbol '2'\n"),
}


@pytest.mark.parametrize("argv", sorted(STDOUT))
def test_word_query_output(capsys, argv):
    code, text, as_json = STDOUT[argv]
    argv = [arg.replace("W512", W512) for arg in argv]
    for flags, expected in (([], text), (["--json"], as_json)):
        got = main(flags + argv)
        out = capsys.readouterr()
        shown, silent = (out.out, out.err) if code == 0 else (out.err, out.out)
        assert (got, shown, silent) == (code, expected, ""), flags
