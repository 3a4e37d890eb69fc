"""Tests for the NIC (lambda-IR) forms of the benchmark workloads."""

from types import SimpleNamespace

import pytest

from repro.isa import Interpreter, VERDICT_DROP, VERDICT_FORWARD
from repro.isa.analysis import function_signature
from repro.workloads import (
    ACK_BYTES,
    GRAYSCALE_CYCLES_PER_PIXEL,
    KV_RESPONSE_BYTES,
    grayscale_reference,
    image_transformer_nic,
    kv_client_nic,
    make_rgba_image,
    populate_content,
    web_server_nic,
)
from repro.workloads.intrinsics import grayscale


def run(program, headers=None, meta=None, memory=None):
    return Interpreter().run(program, headers=headers or {}, meta=meta or {},
                             memory=memory)


def test_web_server_serves_requested_page():
    program = web_server_nic(pages=8, page_bytes=100)
    memory = {name: bytearray(obj.size_bytes)
              for name, obj in program.objects.items()}
    populate_content(memory["content"], pages=8, page_bytes=100)
    result = run(
        program,
        headers={"LambdaHeader": {"request_id": 3}},
        memory=memory,
    )
    assert result.verdict == VERDICT_FORWARD
    assert result.meta["response_bytes"] == 100
    assert result.response_payload == bytes([3] * 100)
    assert result.headers["LambdaHeader"]["is_response"] == 1


def test_web_server_pages_differ():
    program = web_server_nic(pages=8, page_bytes=50)
    memory = {name: bytearray(obj.size_bytes)
              for name, obj in program.objects.items()}
    populate_content(memory["content"], pages=8, page_bytes=50)
    p1 = run(program, headers={"LambdaHeader": {"request_id": 1}},
             memory=memory).response_payload
    p2 = run(program, headers={"LambdaHeader": {"request_id": 2}},
             memory=memory).response_payload
    assert p1 != p2


def test_web_server_counts_hits_persistently():
    program = web_server_nic(pages=8, page_bytes=50)
    memory = {name: bytearray(obj.size_bytes)
              for name, obj in program.objects.items()}
    for _ in range(3):
        run(program, headers={"LambdaHeader": {"request_id": 0}}, memory=memory)
    assert int.from_bytes(memory["stats"][:8], "little") == 3


def test_web_server_requires_power_of_two_pages():
    with pytest.raises(ValueError):
        web_server_nic(pages=12)


def test_kv_client_phase1_emits_call_and_parks():
    program = kv_client_nic(keys=8)
    result = run(program, headers={"LambdaHeader": {"request_id": 5}},
                 meta={"service_response": 0})
    assert result.verdict == VERDICT_DROP
    assert len(result.emitted) == 1
    emitted = result.emitted[0]
    assert emitted.meta["emit_dst"] == "memcached"
    assert emitted.meta["emit_key"] == 5  # request_id & 7
    assert emitted.meta["emit_method"] == "GET"


def test_kv_client_set_variant():
    program = kv_client_nic(method="SET", keys=8)
    result = run(program, headers={"LambdaHeader": {"request_id": 2}})
    assert result.emitted[0].meta["emit_method"] == "SET"


def test_kv_client_phase2_replies():
    program = kv_client_nic(keys=8)
    result = run(
        program,
        headers={"LambdaHeader": {"request_id": 5}},
        meta={"service_response": 1, "service_status": 0},
    )
    assert result.verdict == VERDICT_FORWARD
    assert result.meta["response_bytes"] == KV_RESPONSE_BYTES
    assert not result.emitted


def test_kv_client_phase2_error_short_reply():
    program = kv_client_nic(keys=8)
    result = run(
        program,
        headers={"LambdaHeader": {"request_id": 5}},
        meta={"service_response": 1, "service_status": 1},
    )
    assert result.verdict == VERDICT_FORWARD
    assert result.meta["response_bytes"] == 32


def test_kv_client_validates_args():
    with pytest.raises(ValueError):
        kv_client_nic(keys=10)
    with pytest.raises(ValueError):
        kv_client_nic(method="FROB")


def test_image_transformer_grayscale_matches_reference():
    width = height = 32
    program = image_transformer_nic(width=width, height=height,
                                    tile_blocks=4, block_pad=2)
    memory = {name: bytearray(obj.size_bytes)
              for name, obj in program.objects.items()}
    rgba = make_rgba_image(width, height, seed=3)
    memory["image"][:] = rgba
    result = run(
        program,
        headers={"LambdaHeader": {"request_id": 1, "seq": 0}},
        meta={"rdma_len": len(rgba)},
        memory=memory,
    )
    assert result.verdict == VERDICT_FORWARD
    assert result.meta["response_bytes"] == ACK_BYTES
    expected = grayscale_reference(rgba)
    assert bytes(memory["image"][:width * height]) == expected


@pytest.mark.parametrize("n_pixels", [0, 1, 17, 64, 70])
def test_grayscale_intrinsic_converts_only_the_requested_pixels(n_pixels):
    """The gray plane covers ``min(n_pixels, len // 4)`` pixels; every
    byte after it keeps its RGBA value."""
    rgba = make_rgba_image(8, 8, seed=5)
    buffer = bytearray(rgba)
    machine = SimpleNamespace(memory={"image": buffer}, read=lambda value: value)
    cycles = grayscale(machine, (("mem", "image", 0), n_pixels))
    usable = min(n_pixels, 64)
    assert cycles == usable * GRAYSCALE_CYCLES_PER_PIXEL
    assert bytes(buffer[:usable]) == grayscale_reference(rgba[:usable * 4])
    assert bytes(buffer[usable:]) == rgba[usable:]
    buffer.extend(b"\x00")  # no numpy view is left holding the buffer


def test_image_transformer_rejects_empty():
    program = image_transformer_nic(width=8, height=8, tile_blocks=2,
                                    block_pad=1)
    result = run(program, headers={"LambdaHeader": {"request_id": 1, "seq": 0}},
                 meta={"rdma_len": 0})
    assert result.meta["response_bytes"] == 32


def test_image_transform_cost_scales_with_pixels():
    small = image_transformer_nic(width=16, height=16, tile_blocks=2,
                                  block_pad=1)
    big = image_transformer_nic(width=64, height=64, tile_blocks=2,
                                block_pad=1)

    def cycles(program, n):
        memory = {name: bytearray(obj.size_bytes)
                  for name, obj in program.objects.items()}
        return run(
            program,
            headers={"LambdaHeader": {"request_id": 1, "seq": 0}},
            meta={"rdma_len": n},
            memory=memory,
        ).cycles

    assert cycles(big, 64 * 64 * 4) > 10 * cycles(small, 16 * 16 * 4)


def test_shared_helpers_are_coalescable():
    """The reply and request-gen helpers must be byte-identical."""
    web = web_server_nic()
    img = image_transformer_nic()
    assert function_signature(web.functions["reply_static"]) == \
        function_signature(img.functions["reply_static"])
    kv_get = kv_client_nic("kv1", method="GET")
    kv_set = kv_client_nic("kv2", method="SET")
    assert function_signature(kv_get.functions["gen_memcached_request"]) == \
        function_signature(kv_set.functions["gen_memcached_request"])


def test_all_nic_programs_validate():
    for program in [web_server_nic(), kv_client_nic(), image_transformer_nic()]:
        program.validate()
        assert program.instruction_count > 500
