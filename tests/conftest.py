import json
from pathlib import Path

from kstep_lln.treefile import TreeBundle, bundle_to_dict


def write_tree(path: str | Path, bundle: TreeBundle) -> None:
    """Write a bundle as the tree file `load_tree` reads: indented JSON and a final newline."""
    Path(path).write_text(json.dumps(bundle_to_dict(bundle), indent=1) + "\n")
