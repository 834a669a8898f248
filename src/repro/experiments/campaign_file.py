"""Campaign definition files: experiments as data.

A measurement campaign -- which transports, which sizes, how many
repetitions, which day periods -- is configuration, not code.  This
module loads/saves :class:`CampaignSpec` as JSON so users can define
custom studies and run them with ``repro run-campaign FILE``:

.. code-block:: json

    {
      "name": "my-study",
      "repetitions": 5,
      "periods": ["night", "evening"],
      "sizes": ["64 KB", "4 MB"],
      "flows": [
        {"mode": "sp", "interface": "wifi"},
        {"mode": "mp", "carrier": "verizon", "controller": "olia",
         "paths": 4}
      ]
    }

Sizes accept integers (bytes) or the paper's human labels ("8 KB",
"2 MB").  Flow objects take any :class:`FlowSpec` field.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path
from typing import Union

from repro.experiments.config import FlowSpec
from repro.experiments.runner import CampaignSpec
from repro.wireless.profiles import TimeOfDay

_SIZE_PATTERN = re.compile(
    r"^\s*(\d+(?:\.\d+)?)\s*(B|KB|MB|GB)?\s*$", re.IGNORECASE)
_UNIT = {"b": 1, "kb": 1024, "mb": 1024 ** 2, "gb": 1024 ** 3}


def parse_size(value: Union[int, str]) -> int:
    """'512 KB' / '4 MB' / 8192 -> a positive number of bytes."""
    if isinstance(value, str):
        match = _SIZE_PATTERN.match(value)
        if not match:
            raise ValueError(f"unparseable size {value!r}")
        number, unit = match.groups()
        size = int(float(number) * _UNIT[(unit or "B").lower()])
    elif isinstance(value, int) and not isinstance(value, bool):
        size = value
    else:
        raise ValueError(
            f"a size is a whole byte count or a label like '4 MB', "
            f"got {value!r}")
    if size <= 0:
        raise ValueError(f"size must be at least one byte, got {value!r}")
    return size


def format_size(size: int) -> Union[int, str]:
    """Bytes -> the most readable JSON representation."""
    for unit, factor in (("MB", 1024 ** 2), ("KB", 1024)):
        if size % factor == 0 and size >= factor:
            return f"{size // factor} {unit}"
    return size


def campaign_from_dict(data: dict) -> CampaignSpec:
    """Build a CampaignSpec from a parsed JSON object."""
    unknown = set(data) - {"name", "flows", "sizes", "repetitions",
                           "periods", "base_seed"}
    if unknown:
        raise ValueError(f"unknown campaign keys: {sorted(unknown)}")
    if "name" not in data or "flows" not in data or "sizes" not in data:
        raise ValueError("a campaign needs 'name', 'flows' and 'sizes'")
    flows = tuple(FlowSpec(**flow) for flow in data["flows"])
    sizes = tuple(parse_size(size) for size in data["sizes"])
    kwargs = {}
    if "repetitions" in data:
        kwargs["repetitions"] = int(data["repetitions"])
        if kwargs["repetitions"] < 1:
            raise ValueError(f"repetitions must be at least 1, "
                             f"got {data['repetitions']!r}")
    if "periods" in data:
        kwargs["periods"] = tuple(TimeOfDay(period)
                                  for period in data["periods"])
    if "base_seed" in data:
        kwargs["base_seed"] = int(data["base_seed"])
    return CampaignSpec(name=data["name"], specs=flows, sizes=sizes,
                        **kwargs)


def campaign_to_dict(spec: CampaignSpec) -> dict:
    """Serialize a CampaignSpec, dropping FlowSpec fields at default."""
    defaults = FlowSpec(mode="sp")
    flows = []
    for flow in spec.specs:
        entry = {"mode": flow.mode}
        for field in dataclasses.fields(FlowSpec):
            if field.name == "mode":
                continue
            value = getattr(flow, field.name)
            if value != getattr(defaults, field.name):
                entry[field.name] = value
        flows.append(entry)
    return {
        "name": spec.name,
        "repetitions": spec.repetitions,
        "periods": [period.value for period in spec.periods],
        "base_seed": spec.base_seed,
        "sizes": [format_size(size) for size in spec.sizes],
        "flows": flows,
    }


def load_campaign(path: Union[str, Path]) -> CampaignSpec:
    with open(path) as handle:
        return campaign_from_dict(json.load(handle))


def save_campaign(spec: CampaignSpec, path: Union[str, Path]) -> None:
    with open(path, "w") as handle:
        json.dump(campaign_to_dict(spec), handle, indent=2)
        handle.write("\n")
