//! Throwaway review probe: does CSE mishandle self-referential assigns?

use terra_ir::{
    optimize, BinKind, ExprKind, IrExpr, IrFunction, IrStmt, LocalId, NoEnv, NoInline, OptLevel,
    PassConfig, StmtKind, Ty,
};

fn func(params: Vec<Ty>, ret: Ty) -> IrFunction {
    let mut f = IrFunction {
        name: "probe".into(),
        ty: terra_ir::FuncTy {
            params: params.clone(),
            ret,
        },
        locals: Vec::new(),
        body: Vec::new(),
    };
    for (i, p) in params.into_iter().enumerate() {
        f.add_local(format!("p{i}"), p, false);
    }
    f
}

#[test]
fn cse_self_referential_assign() {
    // x = x + 1; y = x + 1; return y   (x is param p0)
    let mut f = func(vec![Ty::INT], Ty::INT);
    let x = LocalId(0);
    let y = f.add_local("y", Ty::INT, false);
    let x_plus_1 = || {
        IrExpr::binary(
            BinKind::Add,
            IrExpr::local(x, Ty::INT),
            IrExpr {
                ty: Ty::INT,
                kind: ExprKind::ConstInt(1),
            },
        )
    };
    f.body = vec![
        IrStmt::new(StmtKind::Assign {
            dst: x,
            value: x_plus_1(),
        }),
        IrStmt::new(StmtKind::Assign {
            dst: y,
            value: x_plus_1(),
        }),
        IrStmt::new(StmtKind::Return(Some(IrExpr::local(y, Ty::INT)))),
    ];
    let cfg = PassConfig {
        level: OptLevel::O2,
        types: None,
        env: &NoEnv,
        inline: &NoInline,
    };
    optimize(&mut f, &cfg);
    eprintln!("{f:#?}");
    // After `x = x + 1`, y must still be computed as x + 1 (an Add must
    // survive feeding y / the return), not collapse to a plain read of x.
    let second_is_copy_of_x = f.body.iter().any(|s| match &s.kind {
        StmtKind::Return(Some(e)) => e.kind == ExprKind::Local(x),
        StmtKind::Assign { dst, value } => *dst == y && value.kind == ExprKind::Local(x),
        _ => false,
    });
    assert!(
        !second_is_copy_of_x,
        "MISCOMPILE: y = x+1 after x = x+1 was CSE'd into a read of x"
    );
}
