"""Bitwise pins and a predictor cross-check for the reference model.

``tests/test_refsim_validation.py`` checks only trend directions, so no
test there notices a changed bit.  These pin every rate the reference
model reports — the CPI, the three miss rates and the branch mispredict
rate, by ``repr`` — for the 8 SPEC profiles at the CPI pin points, and
check its mispredict rate against the predictor driven directly, in
program order, over random predictor geometries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.design_space import paper_design_space
from repro.simulator import isa
from repro.simulator.branch import PREDICT_MISPREDICT, BranchUnit
from repro.simulator.config import ProcessorConfig
from repro.simulator.refsim import ReferenceSimulator
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import PROFILES
from repro.workloads.spec2000 import get_trace
from tests.test_vectorised import PIN_POINTS

FIELDS = ("cpi", "il1_miss_rate", "dl1_miss_rate", "l2_miss_rate",
          "branch_mispredict_rate")

#: repr() of FIELDS at each of PIN_POINTS (trace length 4096, seed 0).
PIN_RATES = {
    "ammp": [
        ("11.212528228759766", "0.12087912087912088", "0.4520547945205479",
         "0.5626959247648903", "0.13020833333333334"),
        ("10.221435546875", "0.12087912087912088", "0.36663980660757456",
         "0.674812030075188", "0.13020833333333334"),
        ("8.3084716796875", "0.12087912087912088", "0.36341659951651895",
         "0.6799242424242424", "0.13020833333333334"),
    ],
    "crafty": [
        ("11.161316171917816", "0.24731182795698925", "0.380859375",
         "0.42208588957055215", "0.2360939431396786"),
        ("10.278774515423676", "0.18924731182795698", "0.24479166666666666",
         "0.6231884057971014", "0.2360939431396786"),
        ("8.971279398236176", "0.18924731182795698", "0.240234375",
         "0.6311926605504588", "0.2360939431396786"),
    ],
    "equake": [
        ("9.91711162570822", "0.07354685646500593", "0.3603667136812412",
         "0.5514834205933682", "0.09198813056379822"),
        ("8.962708702124235", "0.07354685646500593", "0.27291960507757407",
         "0.7037861915367484", "0.09198813056379822"),
        ("7.205384483374235", "0.07354685646500593", "0.2693935119887165",
         "0.7117117117117117", "0.09198813056379822"),
    ],
    "mcf": [
        ("21.031326404305698", "0.059113300492610835", "0.5149436550710436",
         "0.6205641492265697", "0.13555992141453832"),
        ("18.93008815357328", "0.059113300492610835", "0.416952474277315",
         "0.7586206896551724", "0.13555992141453832"),
        ("14.959995380135778", "0.059113300492610835", "0.4071533561979422",
         "0.7758816837315131", "0.13555992141453832"),
    ],
    "parser": [
        ("11.671685218206296", "0.25578034682080925", "0.4582743988684583",
         "0.44", "0.20035149384885764"),
        ("10.59548282562817", "0.20086705202312138", "0.29490806223479493",
         "0.6528776978417267", "0.20035149384885764"),
        ("8.88063907562817", "0.20086705202312138", "0.2871287128712871",
         "0.6660550458715596", "0.20035149384885764"),
    ],
    "perlbmk": [
        ("16.35725038892382", "0.43658810325476993", "0.4043824701195219",
         "0.5220440881763527", "0.23684210526315788"),
        ("14.735115226570304", "0.34231200897867564", "0.2642762284196547",
         "0.7411095305832148", "0.23684210526315788"),
        ("12.081916984382804", "0.3378226711560045", "0.2583001328021248",
         "0.755072463768116", "0.23684210526315788"),
    ],
    "twolf": [
        ("10.862672613734373", "0.12314225053078556", "0.49002849002849",
         "0.5411392405063291", "0.2030360531309298"),
        ("9.972520636195311", "0.11677282377919321", "0.3779677113010446",
         "0.6732283464566929", "0.2030360531309298"),
        ("8.347276495570311", "0.11677282377919321", "0.3741690408357075",
         "0.6785714285714286", "0.2030360531309298"),
    ],
    "vortex": [
        ("16.488239608597933", "0.46145494028230183", "0.42764927380311996",
         "0.41885245901639345", "0.19941348973607037"),
        ("14.884315810990511", "0.3300760043431053", "0.2560516406670253",
         "0.6551282051282051", "0.19941348973607037"),
        ("12.409828506303011", "0.3289902280130293", "0.2415277030661646",
         "0.6795212765957447", "0.19941348973607037"),
    ],
}


@pytest.mark.parametrize("bench_name", sorted(PIN_RATES))
def test_refsim_bitwise_pinned(bench_name):
    space = paper_design_space()
    trace = get_trace(bench_name, 4096, 0)
    got = []
    for point in PIN_POINTS:
        config = ProcessorConfig.from_design_point(space.resolve(point))
        result = ReferenceSimulator(config).run(trace)
        got.append(tuple(repr(getattr(result, name)) for name in FIELDS))
    assert got == PIN_RATES[bench_name]


geometries = st.fixed_dictionaries({
    "bpred_kind": st.sampled_from(
        ["bimodal", "gshare", "tournament", "perceptron"]),
    "bpred_entries": st.sampled_from([256, 4096]),
    "bpred_history": st.integers(1, 16),
    "btb_entries": st.sampled_from([16, 128, 2048]),
})

traces = st.tuples(
    st.sampled_from(sorted(PROFILES)), st.integers(64, 1500), st.integers(0, 1000)
)


@settings(max_examples=25, deadline=None)
@given(geometry=geometries, trace_args=traces)
def test_mispredict_rate_is_the_predictors(geometry, trace_args):
    name, length, seed = trace_args
    trace = generate_trace(PROFILES[name], length, seed)
    config = ProcessorConfig(**geometry)
    # The reference: the predictor driven directly, in program order.
    unit = BranchUnit(config)
    conditional = mispredicted = 0
    for op, pc, taken in zip(trace.op.tolist(), trace.pc.tolist(),
                             trace.taken.tolist()):
        if op in (isa.BRANCH, isa.JUMP):
            outcome = unit.predict(pc, taken, op == isa.BRANCH)
            conditional += op == isa.BRANCH
            mispredicted += outcome == PREDICT_MISPREDICT
    rate = mispredicted / conditional if conditional else 0.0
    assert ReferenceSimulator(config).run(trace).branch_mispredict_rate == rate
