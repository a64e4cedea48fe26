from scale_recipe import COUNTS, main, recipe


def test_a_small_recipe_verifies_and_repeats_its_counts():
    """At n=16 the recipe's trace verifies (``recipe`` stops on one that
    does not), each phase (``augment_to``, ``verify_trace`` and the
    connectivity-then-families query) counts some work, and a second run
    gives the same counts and the same trace digest; only the times may
    differ."""
    first, second = recipe(16), recipe(16)
    assert (first["n"], first["m"]) == (16, 56) and first["steps"] > 0
    assert all(first[f"{phase}{name}"] > 0 for phase in ("", "verify_", "query_") for name in COUNTS)
    assert all(first[f"{phase}_s"] >= 0 for phase in ("augment", "verify", "query"))
    assert len(first["sha256"]) == 64
    untimed = [{key: value for key, value in row.items() if not key.endswith("_s")} for row in (first, second)]
    assert untimed[0] == untimed[1]


def test_the_script_prints_a_header_and_one_row_per_size(capsys):
    assert main(["16", "12"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:3] == ["n", "m", "steps"] and header.split()[-1] == "sha256"
    assert [row.split()[0] for row in rows] == ["16", "12"]
    assert all(len(row.split()) == len(header.split()) for row in rows)
