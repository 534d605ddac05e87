import xml.etree.ElementTree as ET

from paragas import (SchedulerConfig, TxSet, gantt_svg, make_transaction,
                     optimal_schedule)
from paragas.render import MAX_TICKS, PX_PER_UNIT

N2 = SchedulerConfig(threads=2)


def svg_of(*txs):
    block = TxSet(txs)
    return gantt_svg(optimal_schedule(block, N2))


def test_svg_escapes_ids_and_keys():
    doc = svg_of(make_transaction("a<&b", 1, ["k<1>&"]),
                 make_transaction("c\"d", 2, ["k<1>&"]))
    root = ET.fromstring(doc)
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "a<&b" in texts and "k<1>&" in texts and 'c"d' in texts


def tick_count(doc):
    # Every <line> is a tick but one: the rule under the single key row.
    return len(ET.fromstring(doc).findall(
        "{http://www.w3.org/2000/svg}line")) - 1


def chart_width(doc):
    # The SVG is the chart plus a 90 px label column and a 20 px margin.
    return int(ET.fromstring(doc).get("width")) - 110


def test_svg_tick_count_is_capped():
    for doc in (svg_of(make_transaction("a", 1000, ["k1"])),
                svg_of(make_transaction("a", "1000000000", ["k1"]),
                       make_transaction("b", "1/3", ["k1"]))):
        assert tick_count(doc) <= MAX_TICKS + 1
        assert chart_width(doc) <= MAX_TICKS * PX_PER_UNIT


def test_svg_ticks_every_unit_for_short_schedules():
    doc = svg_of(make_transaction("a", 7, ["k1"]))
    assert chart_width(doc) == 7 * PX_PER_UNIT
    labels = [el.text for el in ET.fromstring(doc).iter(
        "{http://www.w3.org/2000/svg}text")]
    assert [str(t) for t in range(8)] == labels[-8:]
