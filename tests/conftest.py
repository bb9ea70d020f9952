import pytest

from silkcheck import corpus_path, load_schema, load_script, load_theory


SCRIPT_NAMES = [
    "silk_fhat.slk",
    "silk_exp.slk",
    "silk_conj_comm.slk",
    "silk_excluded_middle.slk",
    "silk_wedge.slk",
    "silk_wedge_var.slk",
    "silk_interleaved.slk",
    "silk_contract.slk",
]


@pytest.fixture(scope="session")
def shat():
    """Schema file for the successor-embedding example plus its theory."""
    return load_schema(corpus_path("schema_shat.sch"))


@pytest.fixture(scope="session")
def fhat_script():
    return load_script(corpus_path("silk_fhat.slk"))


@pytest.fixture(scope="session")
def exp_script():
    return load_script(corpus_path("silk_exp.slk"))


@pytest.fixture(scope="session")
def all_scripts():
    return {name: load_script(corpus_path(name)) for name in SCRIPT_NAMES}


@pytest.fixture(scope="session")
def shat_theory():
    return load_theory(corpus_path("theory_shat.thy"))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding copies of the corpus theories, which the mutated
    files name by relative path, and a directory `thy` for mutated
    theories."""
    where = tmp_path_factory.mktemp("fuzz")
    for path in corpus_path("theory_shat.thy").parent.glob("*.thy"):
        (where / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (where / "thy").mkdir()
    return where
