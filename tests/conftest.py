import pytest

from blochobs.reconstruction import kappa_weights, oracle_moments, oracle_psi_samples
from blochobs.representation import apply_word, kappa_of_word


@pytest.fixture
def oracle_table():
    """The oracle moments of the words' images of phi, as reconstruct forms
    them: the psi samples of the truth, then their quadrature."""

    def table(truth, grid, phi, words, D):
        polys = [apply_word(w, phi) for w in words]
        kexp = kappa_weights([kappa_of_word(w) for w in words], grid.nodes)
        return oracle_moments(oracle_psi_samples(truth, polys, kexp), grid, D)

    return table
