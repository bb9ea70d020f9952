"""One transcript of the command line over the whole bundled corpus: every
corpus file under every command form, with and without ``--json``, run in
one process through ``cli.main``, each run's exit code, stdout and stderr in
turn.

    PYTHONPATH=src python tests/transcript.py OUT

Files are named relative to the corpus directory, so the transcript does not
depend on where the checkout lies.  Two transcripts made under different
``PYTHONHASHSEED`` values must be byte-identical: output that differs
between them depends on set or dict order of hashed values.

``tests/transcript.txt`` holds the transcript as the command line last
printed it on purpose, and ``tests/test_cli.py`` rebuilds it in process and
compares the two byte for byte.  A change that means to alter what a
command prints writes it again, and says why:

    PYTHONPATH=src python tests/transcript.py tests/transcript.txt
"""

import contextlib
import io
import os
import sys

from silkcheck import corpus_path
from silkcheck.cli import main

FORMS = (
    ("check-lk",),
    ("check-lk", "--mode", "lk"),
    ("check-lk", "--mode", "lks", "--env", "schema_shat.sch"),
    ("check-lk", "--lenient-erule"),
    ("check-schema",),
    ("check-silk",),
    ("unroll", "--alpha", "3"),
    ("unroll", "--alpha", "3", "--lk"),
    ("unroll", "--alpha", "3", "--lk", "--check"),
    ("unroll", "--alpha", "5", "--check", "--quiet"),
    ("ppsnf",),
    ("translate",),
    ("interpret",),
    ("stats", "--alpha-range", "0..4"),
)


def transcript() -> str:
    corpus = corpus_path("schema_shat.sch").parent
    names = sorted(path.name for path in corpus.iterdir() if path.is_file())
    parts = []
    old = os.getcwd()
    os.chdir(corpus)
    try:
        for name in names:
            for command, *options in FORMS:
                for json in ((), ("--json",)):
                    argv = [command, name, *options, *json]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(argv)
                    parts.append(f"$ silkcheck {' '.join(argv)}\nexit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    finally:
        os.chdir(old)
    return "".join(parts)


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as out:
        out.write(transcript())
