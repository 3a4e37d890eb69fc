"""Listing 3 of the paper as :func:`repro.p4.build_dispatch_pipeline`
builds it: its structure, its direct execution, its lowering to NPU code,
and the errors that the P4 constructors and the lowering raise.

The paper's Listing 3::

    control ingress {
        if (valid(lambda_hdr)) {
            if (lambda_hdr.wId == WEB_SERVER_ID) {
                apply(web_server);
                apply(return_web_server_results);
            } else if (lambda_hdr.wId == OTHER_LAMBDA_ID) {
                apply(other_lambda);
                apply(return_other_lambda_results);
            }
        } else { apply(send_pkt_to_host); }
    }
"""

import pytest

from repro.isa import Function, Interpreter, LambdaProgram, Op, ins
from repro.net import (
    EthernetHeader,
    HeaderStack,
    IPv4Header,
    LambdaHeader,
    Packet,
    RpcHeader,
    UDPHeader,
)
from repro.p4 import (
    ApplyTable,
    CTRL_DROP,
    CTRL_FORWARD,
    CTRL_TO_HOST,
    Action,
    ControlBlock,
    IfFieldEq,
    IfValid,
    InvokeLambda,
    P4Error,
    SendToHost,
    Statement,
    Table,
    build_dispatch_pipeline,
    lower_control,
)

LAMBDA_IDS = {"web_server": 1, "other_lambda": 2}


def listing3(**kwargs):
    return build_dispatch_pipeline(LAMBDA_IDS, headers_used=[], **kwargs)


def dispatch(control, headers, verdict=CTRL_FORWARD):
    """Execute ``control``; returns (verdict, invoked lambdas, meta)."""
    invoked, meta = [], {}
    result = control.execute(
        headers, meta, lambda name: invoked.append(name) or verdict)
    return result, invoked, meta


def stub(name, marker):
    return Function(name, [ins(Op.MSTORE, ("meta", "ran"), marker),
                           ins(Op.RET)])


def run_lowered(control, wid, use_if_else_tables=False):
    """Run the lowered dispatch over stubs that record which ran."""
    program = LambdaProgram(
        "fw",
        [lower_control(control, use_if_else_tables=use_if_else_tables)]
        + [stub(name, marker) for name, marker in LAMBDA_IDS.items()],
        entry="match_dispatch",
    )
    headers = {} if wid is None else {"LambdaHeader": {"wid": wid}}
    return Interpreter().run(
        program, headers=headers,
        meta={"valid_LambdaHeader": 0 if wid is None else 1})


def test_listing3_parses_verbatim():
    control = listing3().control
    assert control.name == "ingress"
    [outer] = control.statements
    assert isinstance(outer, IfValid) and outer.header == "LambdaHeader"
    assert [type(s) for s in outer.orelse] == [SendToHost]
    # One wid comparison per lambda, nested as else-ifs; each branch
    # applies the lambda's route table, then invokes the lambda.
    branches, chain = {}, outer.then
    while isinstance(chain[0], IfFieldEq):
        branch = chain[0]
        assert (branch.header, branch.field_name) == ("LambdaHeader", "wid")
        route, invoke = branch.then
        assert isinstance(route, ApplyTable)
        assert isinstance(invoke, InvokeLambda)
        assert route.table.name == f"route_{invoke.name}"
        branches[invoke.name] = branch.value
        chain = branch.orelse
    assert branches == LAMBDA_IDS
    assert [type(s) for s in chain] == [SendToHost]
    assert sorted(control.invoked_lambdas()) == sorted(LAMBDA_IDS)


def test_listing3_executes_like_the_paper_describes():
    control = listing3().control
    assert dispatch(control, {"LambdaHeader": {"wid": 2}})[:2] == \
        (CTRL_FORWARD, ["other_lambda"])
    assert dispatch(control, {"LambdaHeader": {"wid": 1}})[:2] == \
        (CTRL_FORWARD, ["web_server"])
    # No lambda header, or an unknown lambda: the host stack takes it.
    assert dispatch(control, {"UDPHeader": {}})[:2] == (CTRL_TO_HOST, [])
    assert dispatch(control, {"LambdaHeader": {"wid": 9}})[:2] == \
        (CTRL_TO_HOST, [])
    # A lambda's own drop or punt verdict is the packet's verdict.
    for verdict in (CTRL_DROP, CTRL_TO_HOST):
        assert dispatch(control, {"LambdaHeader": {"wid": 1}},
                        verdict)[0] == verdict


def test_parsed_control_lowers_to_npu_code():
    """The NPU code agrees with direct execution, with the route tables
    lowered naively or as if-else chains."""
    control = listing3().control
    for wid in (1, 2, 9, None):
        headers = {} if wid is None else {"LambdaHeader": {"wid": wid}}
        verdict, invoked, meta = dispatch(control, headers)
        for if_else in (False, True):
            result = run_lowered(control, wid, use_if_else_tables=if_else)
            assert result.verdict == verdict
            assert result.meta.get("ran") == \
                (LAMBDA_IDS[invoked[0]] if invoked else None)
            assert result.meta.get("route_port") == meta.get("route_port")


def test_apply_named_table():
    pipeline = listing3(route_ports={"web_server": "p3"})
    names = [table.name for table in pipeline.tables]
    assert sorted(names) == ["route_other_lambda", "route_web_server"]
    meta = dispatch(pipeline.control, {"LambdaHeader": {"wid": 1}})[2]
    assert meta == {"route_port": "p3"}
    meta = dispatch(pipeline.control, {"LambdaHeader": {"wid": 2}})[2]
    assert meta == {"route_port": "p0"}
    # Match reduction: one shared table, applied before dispatch.
    merged = listing3(route_ports={"web_server": "p3"}, merged_routes=True)
    [table] = merged.tables
    assert table.name == "routes" and table.size == 2
    assert isinstance(merged.control.statements[0].then[0], ApplyTable)
    assert dispatch(merged.control, {"LambdaHeader": {"wid": 1}})[2] == \
        {"route_port": "p3"}


def test_numeric_literals_allowed():
    """Workload IDs are compared as plain integers, in either tier."""
    ids = {"web_server": 7, "other_lambda": 300}
    control = build_dispatch_pipeline(ids, headers_used=[]).control
    for name, wid in ids.items():
        assert dispatch(control, {"LambdaHeader": {"wid": wid}})[1] == [name]
    program = LambdaProgram(
        "fw", [lower_control(control), stub("web_server", 1),
               stub("other_lambda", 2)], entry="match_dispatch")
    result = Interpreter().run(program,
                               headers={"LambdaHeader": {"wid": 300}},
                               meta={"valid_LambdaHeader": 1})
    assert result.meta["ran"] == 2


def test_unbound_constant_rejected():
    """A route entry that leaves its action's parameter unbound fails
    when the table is applied."""
    table = Table("routes", keys=[("LambdaHeader", "wid")],
                  actions=[Action("set_route", writes=("route_port",))])
    table.add_entry((1,), "set_route", {})
    control = ControlBlock([ApplyTable(table), InvokeLambda("web_server")])
    with pytest.raises(P4Error, match="missing param 'route_port'"):
        dispatch(control, {"LambdaHeader": {"wid": 1}})


def test_unknown_header_rejected():
    with pytest.raises(KeyError, match="no parser support"):
        build_dispatch_pipeline(LAMBDA_IDS, headers_used=["GhostHeader"])
    with pytest.raises(KeyError):
        Table("t", keys=[("GhostHeader", "wid")], actions=[])
    with pytest.raises(P4Error, match="no field"):
        Table("t", keys=[("LambdaHeader", "wId")], actions=[])


def test_malformed_blocks_rejected():
    with pytest.raises(P4Error, match="at least one key"):
        Table("t", keys=[], actions=[])

    class Frobnicate(Statement):
        pass

    control = ControlBlock([IfValid("LambdaHeader", then=[Frobnicate()])])
    with pytest.raises(TypeError, match="unknown statement"):
        dispatch(control, {"LambdaHeader": {"wid": 1}})
    with pytest.raises(TypeError, match="cannot lower statement"):
        lower_control(control)


def test_custom_aliases():
    """The parser the pipeline generates extracts headers under the
    names the control block tests, so a parsed packet dispatches."""
    pipeline = build_dispatch_pipeline(LAMBDA_IDS, headers_used=["RpcHeader"])
    assert pipeline.parser.headers == [
        "EthernetHeader", "IPv4Header", "UDPHeader", "LambdaHeader",
        "RpcHeader",
    ]
    packet = Packet("m1", "m2-nic", HeaderStack([
        EthernetHeader(), IPv4Header(), UDPHeader(),
        LambdaHeader(wid=2, request_id=5), RpcHeader(method="GET"),
    ]))
    headers = pipeline.parser.parse(packet)
    assert headers["RpcHeader"]["method"] == "GET"
    assert dispatch(pipeline.control, headers)[:2] == \
        (CTRL_FORWARD, ["other_lambda"])
    bare = Packet("m1", "m2-nic", HeaderStack([UDPHeader()]))
    assert dispatch(pipeline.control, pipeline.parser.parse(bare))[:2] == \
        (CTRL_TO_HOST, [])
