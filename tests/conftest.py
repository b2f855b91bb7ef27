"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from viscodiff.coefficients import make_scalar_model


def scalar_laws(nu0=False):
    """A law of any kind with drawn parameters; constants include +-0.0,
    and nu0 takes only kinds with an antiderivative."""
    value = st.floats(-2.0, 2.0)
    kinds = [
        st.builds(lambda v: make_scalar_model("constant", value=v),
                  st.sampled_from([0.0, -0.0]) | value),
        st.builds(lambda lo, hi, d, c: make_scalar_model(
            "tanh", lo=lo, hi=hi, delta=d, center=c),
            value, value, st.floats(0.01, 1.0), st.floats(-0.5, 1.5)),
        st.builds(lambda c: make_scalar_model("polynomial", coeffs=c),
                  st.lists(value, min_size=1, max_size=4)),
    ]
    if not nu0:
        kinds.append(st.builds(lambda a1, a2: make_scalar_model(
            "cohen-e0", alpha_1=a1, alpha_2=a2),
            st.floats(0.01, 2.0), st.floats(0.01, 1.0)))
    return st.one_of(kinds)
