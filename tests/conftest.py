import pytest

from roundlab.mcf import reset_tau_mcf_ledger


@pytest.fixture(autouse=True)
def fresh_tau_mcf_ledger():
    # tau_mcf's ledger lives for the process: each test starts with it
    # empty, so no answer read under a mocked LP reaches a later test
    reset_tau_mcf_ledger()
