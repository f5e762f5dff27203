"""The page reports, the P=W and Poincare duality reports, the LG
documents and the partition reports, pinned byte for byte in both output
formats: the exit code, the full stdout and the stderr of each call, with
corpus documents named by their corpus name.  A json output is pinned as
the payload its exact bytes decode to."""

import json

import pytest

from conftest import corpus_path

from lgmirror.cli import corpus_names, main

PINNED = {
    'ss weight elliptic-deg-complex --format text': (0,
        ('weight E2 graded dimensions (E2[p,q] = Gr^W_q H^(p+q))\n'
         '  E2[0,0] = 1\n'
         '  E2[0,2] = 2\n'
         '  E2[1,0] = 1\n')),
    'ss weight elliptic-deg-complex --format json': (0,
        {'d2_report': [{'confirmed_zero': True, 'from': [0, 0], 'to': [2, -1]},
                       {'confirmed_zero': True, 'from': [0, 2], 'to': [2, 1]},
                       {'confirmed_zero': True, 'from': [1, 0], 'to': [3, -1]}],
         'e1': [{'dim': 2, 'p': 0, 'q': 0},
                {'dim': 2, 'p': 0, 'q': 2},
                {'dim': 2, 'p': 1, 'q': 0}],
         'e2': [{'dim': 1, 'p': 0, 'q': 0},
                {'dim': 2, 'p': 0, 'q': 2},
                {'dim': 1, 'p': 1, 'q': 0}],
         'grading': 'E2[p,q] = Gr^W_q H^(p+q)',
         'name': 'weight',
         'row_euler': [{'e1_sum': 0, 'e2_sum': 0, 'ok': True, 'q': 0},
                       {'e1_sum': 2, 'e2_sum': 2, 'ok': True, 'q': 2}]}),
    'ss monodromy elliptic-deg-complex --format text': (0,
        ('monodromy E2 graded dimensions (E2[p,q] = Gr^Wlim_q H^(p+q))\n'
         '  E2[-1,2] = 1\n'
         '  E2[0,0] = 1\n'
         '  E2[0,2] = 1\n'
         '  E2[1,0] = 1\n')),
    'ss monodromy elliptic-deg-complex --format json': (0,
        {'d2_report': [{'confirmed_zero': True, 'from': [-1, 2], 'to': [1, 1]},
                       {'confirmed_zero': True, 'from': [0, 0], 'to': [2, -1]},
                       {'confirmed_zero': True, 'from': [0, 2], 'to': [2, 1]},
                       {'confirmed_zero': True, 'from': [1, 0], 'to': [3, -1]}],
         'e1': [{'dim': 2, 'p': -1, 'q': 2},
                {'dim': 2, 'p': 0, 'q': 0},
                {'dim': 2, 'p': 0, 'q': 2},
                {'dim': 2, 'p': 1, 'q': 0}],
         'e2': [{'dim': 1, 'p': -1, 'q': 2},
                {'dim': 1, 'p': 0, 'q': 0},
                {'dim': 1, 'p': 0, 'q': 2},
                {'dim': 1, 'p': 1, 'q': 0}],
         'grading': 'E2[p,q] = Gr^Wlim_q H^(p+q)',
         'name': 'monodromy',
         'row_euler': [{'e1_sum': 0, 'e2_sum': 0, 'ok': True, 'q': 0},
                       {'e1_sum': 0, 'e2_sum': 0, 'ok': True, 'q': 2}]}),
    'ss gflag elliptic-hyb-complex --format text': (0,
        ('gflag E2 graded dimensions (E2[-l,a] = depth-l graded piece of H^(a-l))\n'
         '  E2[-2,2] = 1\n'
         '  E2[-1,2] = 3\n')),
    'ss gflag elliptic-hyb-complex --format json': (0,
        {'d2_report': [{'confirmed_zero': True, 'from': [-2, 2], 'to': [0, 1]},
                       {'confirmed_zero': True, 'from': [-1, 2], 'to': [1, 1]}],
         'e1': [{'dim': 2, 'p': -2, 'q': 2}, {'dim': 4, 'p': -1, 'q': 2}],
         'e2': [{'dim': 1, 'p': -2, 'q': 2}, {'dim': 3, 'p': -1, 'q': 2}],
         'grading': 'E2[-l,a] = depth-l graded piece of H^(a-l)',
         'name': 'gflag',
         'row_euler': [{'e1_sum': -2, 'e2_sum': -2, 'ok': True, 'q': 2}]}),
    'ss delta elliptic-hyb-complex --format text': (0,
        ('delta E2 graded dimensions (E2[l,w] = Gr^P_w H^(w+l))\n'
         '  E2[-1,1] = 1\n'
         '  E2[0,1] = 2\n'
         '  E2[1,1] = 1\n')),
    'ss delta elliptic-hyb-complex --format json': (0,
        {'d2_report': [{'confirmed_zero': True, 'from': [-1, 1], 'to': [1, 0]},
                       {'confirmed_zero': True, 'from': [0, 1], 'to': [2, 0]},
                       {'confirmed_zero': True, 'from': [1, 1], 'to': [3, 0]}],
         'e1': [{'dim': 2, 'p': -1, 'q': 1},
                {'dim': 4, 'p': 0, 'q': 1},
                {'dim': 2, 'p': 1, 'q': 1}],
         'e2': [{'dim': 1, 'p': -1, 'q': 1},
                {'dim': 2, 'p': 0, 'q': 1},
                {'dim': 1, 'p': 1, 'q': 1}],
         'grading': 'E2[l,w] = Gr^P_w H^(w+l)',
         'name': 'delta',
         'row_euler': [{'e1_sum': 0, 'e2_sum': 0, 'ok': True, 'q': 1}]}),
    'ss pw elliptic-deg-complex elliptic-hyb-complex --format text': (0,
        ('mirror P=W (smoothing mode): PASS\n'
         '  a   l   degeneration   fibration\n'
         '   0  -1              1           1\n'
         '   0   0              2           2\n'
         '   0   1              1           1\n')),
    'ss pw elliptic-deg-complex elliptic-hyb-complex --format json': (0,
        {'cells': [{'a': 0, 'degeneration': 1, 'fibration': 1, 'l': -1, 'ok': True},
                   {'a': 0, 'degeneration': 2, 'fibration': 2, 'l': 0, 'ok': True},
                   {'a': 0, 'degeneration': 1, 'fibration': 1, 'l': 1, 'ok': True}],
         'labelled': True,
         'mode': 'smoothing',
         'ok': True}),
    'ss pw elliptic-deg-complex elliptic-hyb-complex --mode central_fiber --format text': (0,
        ('mirror P=W (central_fiber mode): PASS\n'
         '  a   l   degeneration   fibration\n'
         '   0   0              3           3\n'
         '   0   1              1           1\n')),
    'ss pw elliptic-deg-complex elliptic-hyb-complex --mode central_fiber --format json': (0,
        {'cells': [{'a': 0, 'degeneration': 3, 'fibration': 3, 'l': 0, 'ok': True},
                   {'a': 0, 'degeneration': 1, 'fibration': 1, 'l': 1, 'ok': True}],
         'labelled': True,
         'mode': 'central_fiber',
         'ok': True}),
    'lg emit diamond-nef --format text': (0,
        ('constraint: a_(0,-1)*x2^-1 + a_(0,0) + a_(0,1)*x2 + a_(1,0)*x1 = 0\n'
         'potential:  a_(-1,0)*x1^-1 + a_(0,0)\n')),
    'lg emit diamond-nef --format json': (0,
        {'constraints': ['a_(0,-1)*x2^-1 + a_(0,0) + a_(0,1)*x2 + a_(1,0)*x1'],
         'potentials': ['a_(-1,0)*x1^-1 + a_(0,0)']}),
    'lg compactify diamond-nef --format text': (0,
        ('a_(0,-1)*z_(-1,-1)^2*z_(-1,0)*z_(0,-1)^2 + '
         'a_(0,0)*z_(-1,-1)*z_(-1,0)*z_(-1,1)*z_(0,-1)*z_(0,1) + '
         'a_(0,1)*z_(-1,0)*z_(-1,1)^2*z_(0,1)^2 + a_(1,0)*z_(0,-1)*z_(0,1)*z_(1,0) '
         '= 0\n'
         'lambda_1*z_(1,0) - a_(-1,0)*z_(-1,-1)*z_(-1,0)*z_(-1,1) = 0\n')),
    'lg compactify diamond-nef --format json': (0,
        {'equations': [{'terms': [{'coef': 'a_(0,-1)',
                                   'exps': {'z_(-1,-1)': 2,
                                            'z_(-1,0)': 1,
                                            'z_(0,-1)': 2},
                                   'sign': 1},
                                  {'coef': 'a_(0,0)',
                                   'exps': {'z_(-1,-1)': 1,
                                            'z_(-1,0)': 1,
                                            'z_(-1,1)': 1,
                                            'z_(0,-1)': 1,
                                            'z_(0,1)': 1},
                                   'sign': 1},
                                  {'coef': 'a_(0,1)',
                                   'exps': {'z_(-1,0)': 1,
                                            'z_(-1,1)': 2,
                                            'z_(0,1)': 2},
                                   'sign': 1},
                                  {'coef': 'a_(1,0)',
                                   'exps': {'z_(0,-1)': 1,
                                            'z_(0,1)': 1,
                                            'z_(1,0)': 1},
                                   'sign': 1}]},
                       {'terms': [{'coef': 'lambda_1',
                                   'exps': {'z_(1,0)': 1},
                                   'sign': 1},
                                  {'coef': 'a_(-1,0)',
                                   'exps': {'z_(-1,-1)': 1,
                                            'z_(-1,0)': 1,
                                            'z_(-1,1)': 1},
                                   'sign': -1}]}],
         'text': ['a_(0,-1)*z_(-1,-1)^2*z_(-1,0)*z_(0,-1)^2 + '
                  'a_(0,0)*z_(-1,-1)*z_(-1,0)*z_(-1,1)*z_(0,-1)*z_(0,1) + '
                  'a_(0,1)*z_(-1,0)*z_(-1,1)^2*z_(0,1)^2 + '
                  'a_(1,0)*z_(0,-1)*z_(0,1)*z_(1,0) = 0',
                  'lambda_1*z_(1,0) - a_(-1,0)*z_(-1,-1)*z_(-1,0)*z_(-1,1) = 0']}),
    'lg emit square-nef-anticanonical --format text': (0,
        ('potential:  a_(-1,-1)*x1^-1*x2^-1 + a_(-1,0)*x1^-1 + a_(-1,1)*x1^-1*x2 + '
         'a_(0,-1)*x2^-1 + a_(0,0) + a_(0,1)*x2 + a_(1,-1)*x1*x2^-1 + a_(1,0)*x1 + '
         'a_(1,1)*x1*x2\n')),
    'lg emit square-nef-anticanonical --format json': (0,
        {'constraints': [],
         'potentials': ['a_(-1,-1)*x1^-1*x2^-1 + a_(-1,0)*x1^-1 + '
                        'a_(-1,1)*x1^-1*x2 + a_(0,-1)*x2^-1 + a_(0,0) + a_(0,1)*x2 '
                        '+ a_(1,-1)*x1*x2^-1 + a_(1,0)*x1 + a_(1,1)*x1*x2']}),
    'lg compactify square-nef-anticanonical --format text': (0,
        ('mirror status open: the split of the last part is not certified nef\n'
         'lambda_1*z_(-1,0)*z_(0,-1)*z_(0,1)*z_(1,0) - '
         'a_(-1,-1)*z_(-1,0)^2*z_(0,-1)^2 - a_(-1,0)*z_(-1,0)^2*z_(0,-1)*z_(0,1) - '
         'a_(-1,1)*z_(-1,0)^2*z_(0,1)^2 - a_(1,-1)*z_(0,-1)^2*z_(1,0)^2 - '
         'a_(1,0)*z_(0,-1)*z_(0,1)*z_(1,0)^2 - a_(1,1)*z_(0,1)^2*z_(1,0)^2 = 0\n'
         'lambda_2*z_(-1,0)*z_(0,-1)*z_(0,1)*z_(1,0) - '
         'a_(0,-1)*z_(-1,0)*z_(0,-1)^2*z_(1,0) - '
         'a_(0,1)*z_(-1,0)*z_(0,1)^2*z_(1,0) = 0\n')),
    'lg compactify square-nef-anticanonical --format json': (0,
        {'banner': 'mirror status open: the split of the last part is not '
                   'certified nef',
         'equations': [{'terms': [{'coef': 'lambda_1',
                                   'exps': {'z_(-1,0)': 1,
                                            'z_(0,-1)': 1,
                                            'z_(0,1)': 1,
                                            'z_(1,0)': 1},
                                   'sign': 1},
                                  {'coef': 'a_(-1,-1)',
                                   'exps': {'z_(-1,0)': 2, 'z_(0,-1)': 2},
                                   'sign': -1},
                                  {'coef': 'a_(-1,0)',
                                   'exps': {'z_(-1,0)': 2,
                                            'z_(0,-1)': 1,
                                            'z_(0,1)': 1},
                                   'sign': -1},
                                  {'coef': 'a_(-1,1)',
                                   'exps': {'z_(-1,0)': 2, 'z_(0,1)': 2},
                                   'sign': -1},
                                  {'coef': 'a_(1,-1)',
                                   'exps': {'z_(0,-1)': 2, 'z_(1,0)': 2},
                                   'sign': -1},
                                  {'coef': 'a_(1,0)',
                                   'exps': {'z_(0,-1)': 1,
                                            'z_(0,1)': 1,
                                            'z_(1,0)': 2},
                                   'sign': -1},
                                  {'coef': 'a_(1,1)',
                                   'exps': {'z_(0,1)': 2, 'z_(1,0)': 2},
                                   'sign': -1}]},
                       {'terms': [{'coef': 'lambda_2',
                                   'exps': {'z_(-1,0)': 1,
                                            'z_(0,-1)': 1,
                                            'z_(0,1)': 1,
                                            'z_(1,0)': 1},
                                   'sign': 1},
                                  {'coef': 'a_(0,-1)',
                                   'exps': {'z_(-1,0)': 1,
                                            'z_(0,-1)': 2,
                                            'z_(1,0)': 1},
                                   'sign': -1},
                                  {'coef': 'a_(0,1)',
                                   'exps': {'z_(-1,0)': 1,
                                            'z_(0,1)': 2,
                                            'z_(1,0)': 1},
                                   'sign': -1}]}],
         'text': ['lambda_1*z_(-1,0)*z_(0,-1)*z_(0,1)*z_(1,0) - '
                  'a_(-1,-1)*z_(-1,0)^2*z_(0,-1)^2 - '
                  'a_(-1,0)*z_(-1,0)^2*z_(0,-1)*z_(0,1) - '
                  'a_(-1,1)*z_(-1,0)^2*z_(0,1)^2 - a_(1,-1)*z_(0,-1)^2*z_(1,0)^2 - '
                  'a_(1,0)*z_(0,-1)*z_(0,1)*z_(1,0)^2 - '
                  'a_(1,1)*z_(0,1)^2*z_(1,0)^2 = 0',
                  'lambda_2*z_(-1,0)*z_(0,-1)*z_(0,1)*z_(1,0) - '
                  'a_(0,-1)*z_(-1,0)*z_(0,-1)^2*z_(1,0) - '
                  'a_(0,1)*z_(-1,0)*z_(0,1)^2*z_(1,0) = 0']}),
    'partition validate square-diag --format text': (2,
        ('valid: False\n'
         'tiling: True (ok)\n'
         'simplicial pieces: True\n'
         'clause vertex-uniqueness: 2 violation(s)\n'
         "  {'vertex': [-1, -1], 'pieces': [0, 1]}\n"
         "  {'vertex': [1, 1], 'pieces': [0, 1]}\n"
         'clause face-count: 2 violation(s)\n'
         "  {'sigma': [[-1, -1]], 'tau': [[-1, -1]], 'count': 2, 'expected': 1}\n"
         "  {'sigma': [[1, 1]], 'tau': [[1, 1]], 'count': 2, 'expected': 1}\n")),
    'partition validate square-diag --format json': (2,
        {'clauses': [{'id': 'vertex-uniqueness',
                      'violations': [{'pieces': [0, 1], 'vertex': [-1, -1]},
                                     {'pieces': [0, 1], 'vertex': [1, 1]}]},
                     {'id': 'face-count',
                      'violations': [{'count': 2, 'expected': 1,
                                      'sigma': [[-1, -1]], 'tau': [[-1, -1]]},
                                     {'count': 2, 'expected': 1,
                                      'sigma': [[1, 1]], 'tau': [[1, 1]]}]}],
         'simplicial': True,
         'tiling': {'message': 'ok', 'ok': True},
         'valid': False}),
    'partition lift square-vsplit --format text': (0,
        ('lifted polyhedron (y >= -m_i(x), host facets):\n'
         '  normal [1, 0, 0] offset 0\n'
         '  normal [1, -1, 0] offset 0\n'
         '  normal [0, -1, 0] offset 1\n'
         '  normal [0, 0, -1] offset 1\n'
         '  normal [0, 0, 1] offset 1\n'
         '  normal [0, 1, 0] offset 1\n'
         'recession rays: [[1, 0, 0]]\n'
         'vertices: [[0, -1, -1], [0, -1, 1], [0, 0, -1], [0, 0, 1], [1, 1, -1], '
         '[1, 1, 1]]\n'
         'piece functionals: [[0, 0], [-1, 0]]\n')),
    'partition lift square-vsplit --format json': (0,
        {'functionals': [[0, 0], [-1, 0]],
         'inequalities': [{'normal': [1, 0, 0], 'offset': 0},
                          {'normal': [1, -1, 0], 'offset': 0},
                          {'normal': [0, -1, 0], 'offset': 1},
                          {'normal': [0, 0, -1], 'offset': 1},
                          {'normal': [0, 0, 1], 'offset': 1},
                          {'normal': [0, 1, 0], 'offset': 1}],
         'rank': 3,
         'recession_rays': [[1, 0, 0]],
         'vertices': [[0, -1, -1], [0, -1, 1], [0, 0, -1], [0, 0, 1], [1, 1, -1],
                      [1, 1, 1]]}),
    'partition frame square-vsplit --format text': (0,
        'l = 1; L basis [[0, 1]]; v vectors [[1, 0], [-1, 0]]\n'),
    'partition frame square-vsplit --format json': (0,
        {'L_basis': [[0, 1]], 'l': 1, 'v_vectors': [[1, 0], [-1, 0]]}),
    'partition fans square-vsplit --format text': (0,
        ('Sigma_Delta: 4 rays\n'
         "Sigma':      8 rays\n"
         'Sigma_Gamma: 4 rays\n'
         'Sigma_v:     2 rays\n'
         'pi_Gamma = [z_(1,-1)z_(1,0)z_(1,1) : z_(-1,-1)z_(-1,0)z_(-1,1)]\n')),
    'partition fans square-vsplit --format json': (0,
        {'added_rays': [],
         'pi_gamma': {'components': [{'z_(1,-1)': 1, 'z_(1,0)': 1, 'z_(1,1)': 1},
                                     {'z_(-1,-1)': 1, 'z_(-1,0)': 1, 'z_(-1,1)': 1}]},
         'pi_gamma_text': '[z_(1,-1)z_(1,0)z_(1,1) : z_(-1,-1)z_(-1,0)z_(-1,1)]',
         'sigma_delta': {'maximal_cones': [[[-1, -1], [-1, 1]],
                                           [[-1, -1], [1, -1]],
                                           [[-1, 1], [1, 1]],
                                           [[1, -1], [1, 1]]],
                         'rank': 2},
         'sigma_gamma': {'maximal_cones': [[[-1, 0]], [[0, -1]], [[0, 1]], [[1, 0]]],
                         'rank': 2},
         'sigma_prime': {'maximal_cones': [[[-1, -1], [-1, 0]],
                                           [[-1, -1], [0, -1]],
                                           [[-1, 0], [-1, 1]],
                                           [[-1, 1], [0, 1]],
                                           [[0, -1], [1, -1]],
                                           [[0, 1], [1, 1]],
                                           [[1, -1], [1, 0]],
                                           [[1, 0], [1, 1]]],
                         'rank': 2},
         'sigma_v': {'maximal_cones': [[[-1]], [[1]]], 'rank': 1}}),
    'partition lift tsigma-3piece --format text': (0,
        ('lifted polyhedron (y >= -m_i(x), host facets):\n'
         '  normal [1, 0, 0] offset 0\n'
         '  normal [1, 0, -1] offset 0\n'
         '  normal [1, 1, 0] offset 0\n'
         '  normal [0, -1, -1] offset 1\n'
         '  normal [0, 0, 1] offset 1\n'
         '  normal [0, 1, 0] offset 1\n'
         'recession rays: [[1, 0, 0]]\n'
         'vertices: [[0, 0, -1], [0, 0, 0], [0, 1, 0], [0, 2, -1], [1, -1, -1], '
         '[1, -1, 1], [2, -1, 2]]\n'
         'piece functionals: [[0, 0], [0, -1], [1, 0]]\n')),
    'partition lift tsigma-3piece --format json': (0,
        {'functionals': [[0, 0], [0, -1], [1, 0]],
         'inequalities': [{'normal': [1, 0, 0], 'offset': 0},
                          {'normal': [1, 0, -1], 'offset': 0},
                          {'normal': [1, 1, 0], 'offset': 0},
                          {'normal': [0, -1, -1], 'offset': 1},
                          {'normal': [0, 0, 1], 'offset': 1},
                          {'normal': [0, 1, 0], 'offset': 1}],
         'rank': 3,
         'recession_rays': [[1, 0, 0]],
         'vertices': [[0, 0, -1], [0, 0, 0], [0, 1, 0], [0, 2, -1], [1, -1, -1],
                      [1, -1, 1], [2, -1, 2]]}),
    'ss pd elliptic-hyb-complex --format text': (0,
        ('Poincare duality: PASS\n'
         '  dual map [[0], [0, 1], 1]: ok (sign 1)\n'
         '  dual map [[1], [0, 1], 1]: ok (sign 1)\n'
         "  matched signs by depth: {'1': 1}\n")),
    'ss pd elliptic-hyb-complex --format json': (0,
        {'dimension_symmetry': [],
         'dual_maps': [{'ok': True, 'rho': [[0, 1], [0], 0],
                        'rho_dual': [[0], [0, 1], 1], 'sign': 1},
                       {'ok': True, 'rho': [[0, 1], [1], 0],
                        'rho_dual': [[1], [0, 1], 1], 'sign': 1}],
         'matched_signs': {'1': 1},
         'ok': True}),
}

# The stderr of the calls that exit nonzero; every other call writes none.
STDERR = {
    'partition validate square-diag --format text': 'FAIL: partition is not semi-stable\n',
    'partition validate square-diag --format json': 'FAIL: partition is not semi-stable\n',
}


@pytest.mark.parametrize("call", PINNED)
def test_the_printed_document_is_pinned(capsys, call):
    code, expect = PINNED[call]
    argv = [corpus_path(a) if a in corpus_names() else a for a in call.split()]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if isinstance(expect, dict):
        expect = json.dumps(expect, indent=2, sort_keys=True) + "\n"
    assert (out, err) == (expect, STDERR.get(call, ""))
