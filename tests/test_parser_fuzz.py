"""Fuzz of the user-facing parsers: every input parses or fails in one line.

Campaign specs and serving specs arrive as JSON (files, the CLI, the
campaign service's HTTP body) and filters as CLI text.  Whatever the
input, ``CampaignSpec.from_dict(...).validate()``,
``ServingSpec.from_dict(...).validate()`` and ``parse_filter`` either
succeed or raise a ``ValueError`` whose message is one line — never a
``TypeError`` from deep inside a dataclass or a registry lookup.

The JSON strategy builds objects over each parser's own keys (so the
fuzz reaches the field checks, not just the "must be an object" guard),
with any JSON value in any field, plus stray keys.
"""

from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments import CampaignSpec
from repro.experiments.accuracy import AccuracySettings
from repro.experiments.measured import MeasurementSettings
from repro.experiments.spec import AxisGrid, Enrichments, ExecutionPolicy
from repro.experiments.store import parse_filter
from repro.serving import PolicySpec, ServingSpec, TraceSpec

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def json_object(cls, **sections):
    """A JSON object over ``cls``'s fields (``sections`` nest objects), or any JSON."""
    known = st.fixed_dictionaries({}, optional={
        f.name: sections.get(f.name, JSON) | JSON for f in fields(cls)
    })
    stray = st.dictionaries(st.text(max_size=6), JSON, max_size=2)
    return st.builds(lambda extra, data: {**extra, **data}, stray, known) | JSON


CAMPAIGN = json_object(
    CampaignSpec,
    axes=json_object(AxisGrid),
    enrichments=json_object(
        Enrichments,
        accuracy_settings=json_object(AccuracySettings),
        measurement_settings=json_object(MeasurementSettings),
    ),
    execution=json_object(ExecutionPolicy),
)
SERVING = json_object(
    ServingSpec,
    trace=json_object(TraceSpec),
    policy=json_object(PolicySpec),
    execution=json_object(ExecutionPolicy),
)


def parse_campaign(data):
    return CampaignSpec.from_dict(data).validate()


def parse_serving(data):
    return ServingSpec.from_dict(data).validate()


@given(
    st.tuples(st.just(parse_campaign), CAMPAIGN)
    | st.tuples(st.just(parse_serving), SERVING)
    | st.tuples(st.just(parse_filter), st.text())
)
@example((parse_campaign, {"axes": {"models": [[1]]}}))
@example((parse_serving, {"schemes": [[]]}))
@example((parse_serving, {"trace": {"kind": "poisson", "params": 3}}))
@settings(max_examples=400, deadline=None)
def test_parses_or_fails_in_one_line(case):
    parse, data = case
    try:
        parse(data)
    except ValueError as error:
        assert "\n" not in str(error), str(error)
