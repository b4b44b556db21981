"""Build an event log: parse a CSV of smart-home sensor events and group
them into one trace per day.

The sample data is a week of bedroom/living-room motion events.  Each row
carries an id, a timestamp, the home address, the sensor that fired, the
heart rate, and (for later demos) a hand-made refined activity label.
"""

from pathlib import Path

from labelsplit import CsvSchema, PartitionKeySpec, Projection, parse_csv, partition

DATA = Path(__file__).parent / "data" / "smart_home.csv"

schema = CsvSchema(
    timestamp_column="timestamp",
    attribute_columns=("case", "Address", "Sensor", "Heart rate", "Activity"),
    id_column="id",
)

events = parse_csv(DATA.read_text(), schema)
print(f"parsed {len(events)} events")
print("first event:", events[0].id, events[0].timestamp, dict(events[0].attributes))

# group into traces: same address, same calendar day
log = partition(events, PartitionKeySpec(("Address",), calendar_key="day"))
print(f"\npartitioned into {len(log)} traces of sizes {[len(t) for t in log]}")

# labels are projections on attributes; here: the sensor column
sensor_log = Projection("Sensor").apply(log)
print("\nsensor alphabet:", [str(label) for label in sensor_log.alphabet])
for trace in sensor_log:
    print(" ", trace.case_id[1], "->", [str(e.label) for e in trace])

# projections can combine several attributes
example = events[5]
labelled = Projection(["Sensor", "Heart rate"]).apply(log)
print("\nsensor+heart-rate label of event 6:",
      next(e.label.parts for trace in labelled for e in trace if e.id == example.id))
