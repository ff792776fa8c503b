"""The command-line interface, pinned option by option.

``RECORDED_SURFACE`` was recorded from ``build_parser()`` before the
command handlers were made table-driven; a refactor of ``cli.py`` must
leave every command, option, default and help text as recorded.
"""

import argparse

from hwassure.cli import build_parser


def cli_surface(parser, path=""):
    """Map each command path to its help text and one row per option:
    (flags, dest, action, type, default, required, choices, help)."""
    surface = {path: (None, [])}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        surface[path][1].append((
            tuple(action.option_strings),
            action.dest,
            type(action).__name__,
            getattr(action.type, "__name__", action.type),
            action.default,
            action.required,
            None if action.choices is None else list(action.choices),
            action.help,
        ))
        if isinstance(action, argparse._SubParsersAction):
            helps = {choice.dest: choice.help for choice in action._choices_actions}
            for name, sub in action.choices.items():
                key = f"{path} {name}".strip()
                for sub_key, value in cli_surface(sub, key).items():
                    surface[sub_key] = (helps[name], value[1]) if sub_key == key else value
    return surface


RECORDED_SURFACE = {
    '': (
        None,
        [
            ((), 'command', '_SubParsersAction', None, None, True, ['lock', 'frame', 'compose', 'attack', 'sat-fit', 'sat-estimate', 'psc-measure', 'psc-estimate', 'psc-db', 'metrics', 'report', 'demo'], None),
        ],
    ),
    'lock': (
        'insert random key gates into a netlist',
        [
            (('--bench',), 'bench', '_StoreAction', None, None, True, None, None),
            (('--key-length',), 'key_length', '_StoreAction', 'int', None, True, None, None),
            (('--seed',), 'seed', '_StoreAction', 'int', 0, False, None, None),
            (('--out',), 'out', '_StoreAction', None, None, True, None, None),
            (('--key-out',), 'key_out', '_StoreAction', None, None, False, None, None),
        ],
    ),
    'frame': (
        'unroll a sequential design into one combinational frame',
        [
            (('--bench',), 'bench', '_StoreAction', None, None, True, None, None),
            (('--out',), 'out', '_StoreAction', None, None, True, None, None),
        ],
    ),
    'compose': (
        'wrap a framed design in a scan codec',
        [
            (('--bench',), 'bench', '_StoreAction', None, None, True, None, None),
            (('--cr',), 'cr', '_StoreAction', 'int', None, True, None, None),
            (('--channels',), 'channels', '_StoreAction', 'int', 1, False, None, None),
            (('--out',), 'out', '_StoreAction', None, None, True, None, None),
        ],
    ),
    'attack': (
        'run key-recovery attacks, single or batched',
        [
            (('--bench',), 'bench', '_StoreAction', None, None, False, None, None),
            (('--key-length',), 'key_length', '_StoreAction', 'int', None, False, None, None),
            (('--cr',), 'cr', '_StoreAction', 'int', 1, False, None, None),
            (('--seed',), 'seed', '_StoreAction', 'int', 0, False, None, None),
            (('--config',), 'config', '_StoreAction', None, None, False, None, 'JSON grid config for batch mode'),
            (('--workers',), 'workers', '_StoreAction', 'int', 1, False, None, None),
            (('--timeout-s',), 'timeout_s', '_StoreAction', 'float', 3600.0, False, None, None),
            (('--solver',), 'solver', '_StoreAction', None, 'builtin', False, None, None),
            (('--max-iterations',), 'max_iterations', '_StoreAction', 'int', None, False, None, None),
            (('--channels',), 'channels', '_StoreAction', 'int', 1, False, None, None),
            (('--out',), 'out', '_StoreAction', None, None, False, None, None),
        ],
    ),
    'sat-fit': (
        'fit attack-time multiplier curves from measurements',
        [
            (('--csv',), 'csv', '_StoreAction', None, None, True, None, None),
            (('--out',), 'out', '_StoreAction', None, None, True, None, None),
            (('--max-submodels',), 'max_submodels', '_StoreAction', 'int', 20, False, None, None),
        ],
    ),
    'sat-estimate': (
        'estimate platform attack time from a fitted model',
        [
            (('--model',), 'model', '_StoreAction', None, None, True, None, None),
            (('--bench',), 'bench', '_StoreAction', None, None, True, None, None),
            (('--key-length',), 'key_length', '_StoreAction', 'int', None, True, None, None),
            (('--cr',), 'cr', '_StoreAction', 'float', None, True, None, None),
            (('--ip-seconds',), 'ip_seconds', '_StoreAction', 'float', None, True, None, None),
            (('--seed',), 'seed', '_StoreAction', 'int', 0, False, None, None),
            (('--out',), 'out', '_StoreAction', None, None, False, None, None),
        ],
    ),
    'psc-measure': (
        'measure key-pair switching divergence',
        [
            (('--config',), 'config', '_StoreAction', None, None, True, None, None),
            (('--plaintexts',), 'plaintexts', '_StoreAction', 'int', 1000, False, None, None),
            (('--seed',), 'seed', '_StoreAction', 'int', 0, False, None, None),
            (('--out',), 'out', '_StoreAction', None, None, False, None, None),
        ],
    ),
    'psc-estimate': (
        'estimate divergence via the profile database',
        [
            (('--config',), 'config', '_StoreAction', None, None, True, None, None),
            (('--db',), 'db', '_StoreAction', None, None, True, None, None),
            (('--plaintexts',), 'plaintexts', '_StoreAction', 'int', 1000, False, None, None),
            (('--seed',), 'seed', '_StoreAction', 'int', 0, False, None, None),
            (('--out',), 'out', '_StoreAction', None, None, False, None, None),
        ],
    ),
    'psc-db': (
        'pre-simulate benchmark switching profiles',
        [
            (('--benches',), 'benches', '_StoreAction', None, None, True, None, 'comma-separated bench references'),
            (('--windows',), 'windows', '_StoreAction', 'int', 1000, False, None, None),
            (('--seed',), 'seed', '_StoreAction', 'int', 0, False, None, None),
            (('--out',), 'out', '_StoreAction', None, None, True, None, None),
        ],
    ),
    'metrics': (
        'structural and statistical metric calculators',
        [
            ((), 'metric', '_SubParsersAction', None, None, True, ['scoap', 'oh', 'fsm-fi', 'puf', 'cdc'], None),
        ],
    ),
    'metrics scoap': (
        'SCOAP controllability and observability',
        [
            (('--bench',), 'bench', '_StoreAction', None, None, True, None, None),
            (('--classical',), 'classical', '_StoreTrueAction', None, False, False, None, None),
            (('--out',), 'out', '_StoreAction', None, None, False, None, None),
        ],
    ),
    'metrics oh': (
        'observation hardness of one net',
        [
            (('--bench',), 'bench', '_StoreAction', None, None, True, None, None),
            (('--node',), 'node', '_StoreAction', None, None, True, None, None),
            (('--patterns',), 'patterns', '_StoreAction', 'int', None, False, None, None),
            (('--seed',), 'seed', '_StoreAction', 'int', 0, False, None, None),
            (('--out',), 'out', '_StoreAction', None, None, False, None, None),
        ],
    ),
    'metrics fsm-fi': (
        'FSM fault-injection vulnerability',
        [
            (('--csv',), 'csv', '_StoreAction', None, None, True, None, None),
            (('--out',), 'out', '_StoreAction', None, None, False, None, None),
        ],
    ),
    'metrics puf': (
        'PUF inter- or intra-chip Hamming distance',
        [
            (('--responses',), 'responses', '_StoreAction', None, None, True, None, None),
            (('--intra',), 'intra', '_StoreTrueAction', None, False, False, None, None),
            (('--hex',), 'hex', '_StoreTrueAction', None, False, False, None, None),
            (('--out',), 'out', '_StoreAction', None, None, False, None, None),
        ],
    ),
    'metrics cdc': (
        'counterfeit detection confidence over defects',
        [
            (('--csv',), 'csv', '_StoreAction', None, None, True, None, None),
            (('--out',), 'out', '_StoreAction', None, None, False, None, None),
        ],
    ),
    'report': (
        'summarize run records into plot-ready CSV',
        [
            (('--kind',), 'kind', '_StoreAction', None, None, True, ['sat', 'psc', 'metrics'], None),
            (('--records',), 'records', '_StoreAction', None, None, True, None, None),
            (('--out',), 'out', '_StoreAction', None, None, True, None, None),
        ],
    ),
    'demo': (
        'run the full fixed-seed demonstration pipeline',
        [
            (('--out',), 'out', '_StoreAction', None, None, False, None, None),
            (('--seed',), 'seed', '_StoreAction', 'int', 0, False, None, None),
        ],
    ),
}


def test_cli_surface_matches_the_recorded_interface():
    assert cli_surface(build_parser()) == RECORDED_SURFACE
