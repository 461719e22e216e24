"""The transaction/ROWID discipline rules."""

from repro.analysis import analyze_source


class TestRowIdMint:
    def test_fires_outside_the_physical_layer(self, run_fixture):
        [violation] = run_fixture(
            "rowid_mint_violation.py",
            "src/repro/query/shortcut.py",
            "rowid-mint",
        )
        assert violation.rule == "rowid-mint"
        assert violation.path == "src/repro/query/shortcut.py"
        assert violation.line == 7

    def test_silent_on_decode_and_passthrough(self, run_fixture):
        assert (
            run_fixture(
                "rowid_mint_clean.py",
                "src/repro/query/shortcut.py",
                "rowid-mint",
            )
            == []
        )

    def test_rowid_module_may_construct(self):
        source = "RowId = tuple\nrowid = RowId((0, 1, 2))\n"
        assert analyze_source(source, "src/repro/ordbms/rowid.py") == []


class TestPrivateMutation:
    def test_fires_on_cross_object_poke(self, run_fixture):
        violations = run_fixture(
            "private_mutation_violation.py",
            "src/repro/store/poke.py",
            "private-mutation",
        )
        assert [v.line for v in violations] == [5, 6]
        assert "_next_doc_id" in violations[0].message

    def test_silent_on_self_and_factories(self, run_fixture):
        assert (
            run_fixture(
                "private_mutation_clean.py",
                "src/repro/store/counter.py",
                "private-mutation",
            )
            == []
        )

    def test_augmented_and_del_mutations_fire(self):
        source = "def f(table):\n    table._count += 1\n    del table._rows\n"
        violations = analyze_source(source, "src/repro/store/x.py")
        assert [v.rule for v in violations] == [
            "private-mutation",
            "private-mutation",
        ]

    def test_dunder_attributes_not_flagged(self):
        source = "def f(obj):\n    obj.__dict__ = {}\n"
        assert analyze_source(source, "src/repro/store/x.py") == []
