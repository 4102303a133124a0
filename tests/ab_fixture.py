"""The two-component AB system as a JSON document, importable without
pytest (the golden-report regenerator reads it; see `conftest`)."""

FIXTURE_AB = {
    "variables": [
        {"name": "x", "owner": "A"},
        {"name": "y", "owner": "B"},
    ],
    "components": [
        {"name": "A", "inputs": [], "outputs": ["x"],
         "spec": {"states": ["g"], "initial": "g", "bad": [],
                  "edges": [{"from": "g", "guard": "!x", "to": "g"}]}},
        {"name": "B", "inputs": ["x"], "outputs": ["y"],
         "spec": {"states": ["g"], "initial": "g", "bad": [],
                  "edges": [{"from": "g", "guard": "!y", "to": "g"}]}},
    ],
    "global_spec": {"states": ["g"], "initial": "g", "bad": [],
                    "edges": [{"from": "g", "guard": "!y", "to": "g"}]},
}
