"""A slice of the library dump of tests/report_dump.py: one text on every run,
with a line for every route and every way of building a generator."""

from report_dump import BATCH_LISTS, ROUTES, VARIANTS, dump_lines


def test_a_slice_of_the_report_dump_is_repeatable_and_covers_every_route():
    case = (("power:3", "log"), ((0.1, 10.0), (1.0, 1.000001), (-5.0, 5.0)), (129,))
    lines = list(dump_lines(*case))
    assert lines == list(dump_lines(*case))
    fields = [line.split(" -> ")[0].split(" ") for line in lines]
    assert {f[3] for f in fields} == set(ROUTES)
    assert {f[5] for f in fields if f[3] == "batches"} == set(BATCH_LISTS)
    labels = {f[4] for f in fields if f[3] == "classify"}
    assert labels == {f"{variant}({kind})" if variant != "direct" else kind
                      for variant, _ in VARIANTS for kind in ("power:3", "log")}
