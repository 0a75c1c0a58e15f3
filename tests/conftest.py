import pytest

from fuzzpole import kernels
from fuzzpole.rulelang import builtin_pole_kb


@pytest.fixture(scope="session")
def kb():
    return builtin_pole_kb()


@pytest.fixture(scope="session")
def compiled_kb(kb):
    return kernels.compile_kb(kb)



@pytest.fixture(params=kernels.BACKENDS)
def backend(request):
    return request.param
