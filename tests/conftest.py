import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# In CI (GitHub sets CI), draw the same hypothesis examples on every run and
# print the reproduction blob of a failure; example budgets are unchanged.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

from groupsim.embeddings import load_embeddings

EMBEDDING_FIXTURE = """\
the 0.1 0.2 0.3 0.4
cat -0.5 0.25 0.1 0.05
. 0.05 -0.1 0.2 0.3
dog 0.4 0.4 -0.2 0.1
sat 0.3 -0.3 0.3 -0.3
mat 0.2 0.1 -0.4 0.25
on -0.15 0.35 0.15 -0.2
"""


@pytest.fixture
def embedding_file(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text(EMBEDDING_FIXTURE)
    return path


@pytest.fixture
def store(embedding_file):
    return load_embeddings(embedding_file)


@pytest.fixture
def unit_store(embedding_file):
    return load_embeddings(embedding_file, normalize=True)
